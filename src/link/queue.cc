#include "link/queue.h"

#include <algorithm>
#include <stdexcept>

namespace catenet::link {

DropTailQueue::DropTailQueue(std::size_t capacity_packets)
    : capacity_(capacity_packets), slots_(std::min(capacity_packets, kInitialSlots)) {
    if (capacity_packets == 0) throw std::invalid_argument("DropTailQueue: zero capacity");
}

void DropTailQueue::grow() {
    std::vector<Packet> grown(std::min(slots_.size() * 2, capacity_));
    // Re-linearize: the oldest packet moves to slot 0 whatever the head.
    for (std::size_t i = 0; i < count_; ++i) {
        std::size_t at = head_ + i;
        if (at >= slots_.size()) at -= slots_.size();
        grown[i] = std::move(slots_[at]);
    }
    slots_ = std::move(grown);
    head_ = 0;
}

bool DropTailQueue::enqueue(Packet&& packet) {
    if (count_ == capacity_) {
        ++stats_.dropped;
        stats_.bytes_dropped += packet.size();
        return false;
    }
    if (count_ == slots_.size()) grow();
    ++stats_.enqueued;
    stats_.bytes_enqueued += packet.size();
    bytes_ += packet.size();
    // head_ and count_ are both < size, so one conditional subtract wraps
    // the ring — no integer division on the per-packet path.
    std::size_t tail = head_ + count_;
    if (tail >= slots_.size()) tail -= slots_.size();
    slots_[tail] = std::move(packet);
    ++count_;
    return true;
}

std::optional<Packet> DropTailQueue::dequeue() {
    if (count_ == 0) return std::nullopt;
    Packet p = std::move(slots_[head_]);
    if (++head_ == slots_.size()) head_ = 0;
    --count_;
    bytes_ -= p.size();
    ++stats_.dequeued;
    return p;
}

void DropTailQueue::clear() {
    for (auto& slot : slots_) slot = Packet{};  // release buffers, keep slots
    head_ = 0;
    count_ = 0;
    bytes_ = 0;
}

PriorityQueue::PriorityQueue(std::size_t levels, std::size_t per_level_capacity,
                             Classifier level_of)
    : levels_(levels), per_level_capacity_(per_level_capacity), level_of_(std::move(level_of)) {
    if (levels == 0 || per_level_capacity == 0) {
        throw std::invalid_argument("PriorityQueue: zero levels or capacity");
    }
}

bool PriorityQueue::enqueue(Packet&& packet) {
    auto level = static_cast<std::size_t>(level_of_(packet));
    if (level >= levels_.size()) level = levels_.size() - 1;
    auto& q = levels_[level];
    if (q.size() >= per_level_capacity_) {
        ++stats_.dropped;
        stats_.bytes_dropped += packet.size();
        return false;
    }
    ++stats_.enqueued;
    stats_.bytes_enqueued += packet.size();
    ++packets_;
    bytes_ += packet.size();
    q.push_back(std::move(packet));
    return true;
}

std::optional<Packet> PriorityQueue::dequeue() {
    for (auto& q : levels_) {
        if (!q.empty()) {
            Packet p = std::move(q.front());
            q.pop_front();
            --packets_;
            bytes_ -= p.size();
            ++stats_.dequeued;
            return p;
        }
    }
    return std::nullopt;
}

void PriorityQueue::clear() {
    for (auto& q : levels_) q.clear();
    packets_ = 0;
    bytes_ = 0;
}

FairQueue::FairQueue(std::size_t per_flow_capacity, std::size_t quantum_bytes,
                     Classifier flow_of)
    : per_flow_capacity_(per_flow_capacity),
      quantum_(quantum_bytes),
      flow_of_(std::move(flow_of)) {
    if (per_flow_capacity == 0 || quantum_bytes == 0) {
        throw std::invalid_argument("FairQueue: zero capacity or quantum");
    }
}

bool FairQueue::enqueue(Packet&& packet) {
    const std::uint64_t id = flow_of_(packet);
    auto [it, inserted] = flows_.try_emplace(id);
    Flow& flow = it->second;
    if (flow.q.size() >= per_flow_capacity_) {
        ++stats_.dropped;
        stats_.bytes_dropped += packet.size();
        if (inserted) flows_.erase(it);
        return false;
    }
    if (flow.q.empty()) {
        // (Re)activate the flow at the back of the round.
        round_robin_.push_back(id);
        flow.deficit = 0;
    }
    ++stats_.enqueued;
    stats_.bytes_enqueued += packet.size();
    ++packets_;
    bytes_ += packet.size();
    flow.q.push_back(std::move(packet));
    return true;
}

std::optional<Packet> FairQueue::dequeue() {
    while (!round_robin_.empty()) {
        const std::uint64_t id = round_robin_.front();
        auto it = flows_.find(id);
        // Flows leave flows_ only when their queue drains, at which point
        // they are also removed from the round; the entry must exist.
        Flow& flow = it->second;
        if (flow.deficit < flow.q.front().size()) {
            // Not enough credit: add a quantum and move to the back.
            flow.deficit += quantum_;
            round_robin_.pop_front();
            round_robin_.push_back(id);
            continue;
        }
        Packet p = std::move(flow.q.front());
        flow.q.pop_front();
        flow.deficit -= p.size();
        --packets_;
        bytes_ -= p.size();
        ++stats_.dequeued;
        if (flow.q.empty()) {
            // Soft state evaporates with the backlog.
            flows_.erase(it);
            round_robin_.pop_front();
        }
        return p;
    }
    return std::nullopt;
}

void FairQueue::clear() {
    flows_.clear();
    round_robin_.clear();
    packets_ = 0;
    bytes_ = 0;
}

}  // namespace catenet::link
