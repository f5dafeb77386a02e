#include "ip/reassembly.h"

#include <algorithm>

namespace catenet::ip {

Reassembler::Reassembler(sim::Simulator& sim, sim::Time timeout)
    : sim_(sim), timeout_(timeout) {}

std::optional<util::ByteBuffer> Reassembler::add_fragment(
    const Ipv4Header& header, std::span<const std::uint8_t> payload) {
    const sim::Time now = sim_.now();
    expire(now);
    ++stats_.fragments_received;

    const Key key{header.src.value(), header.dst.value(), header.protocol,
                  header.identification};
    PendingIt it;
    if (const auto found = index_.find(key); found != index_.end()) {
        it = found->second;
    } else {
        if (order_.size() == kMaxPending) evict(order_.begin());
        it = order_.insert(order_.end(), Pending{key, Buffer{}});
        it->buf.deadline = now + timeout_;
        index_.emplace(key, it);
    }
    Buffer& buf = it->buf;

    const std::size_t offset = header.payload_offset_bytes();
    const std::size_t size_before = buf.data.size();
    insert_range(buf, offset, payload);
    bytes_ += buf.data.size() - size_before;
    if (!header.more_fragments) {
        buf.total_length = offset + payload.size();
    }

    if (complete(buf)) {
        util::ByteBuffer out = std::move(buf.data);
        bytes_ -= out.size();
        out.resize(*buf.total_length);
        index_.erase(key);
        order_.erase(it);
        ++stats_.datagrams_completed;
        return out;
    }
    // Over the byte limit: evict oldest first, sparing the datagram this
    // fragment just grew (no single datagram can reach the limit alone).
    while (bytes_ > kMaxBufferedBytes) {
        auto victim = order_.begin();
        if (victim == it) ++victim;
        evict(victim);
    }
    return std::nullopt;
}

void Reassembler::insert_range(Buffer& buf, std::size_t offset,
                               std::span<const std::uint8_t> bytes) {
    if (bytes.empty()) return;
    const std::size_t end = offset + bytes.size();
    if (buf.data.size() < end) buf.data.resize(end);
    std::copy(bytes.begin(), bytes.end(), buf.data.begin() + static_cast<std::ptrdiff_t>(offset));

    // Merge [offset, end) into the coalesced range list.
    buf.received.push_back({offset, end});
    std::sort(buf.received.begin(), buf.received.end(),
              [](const Buffer::Span& a, const Buffer::Span& b) { return a.first < b.first; });
    std::vector<Buffer::Span> merged;
    for (const auto& span : buf.received) {
        if (!merged.empty() && span.first <= merged.back().last) {
            merged.back().last = std::max(merged.back().last, span.last);
        } else {
            merged.push_back(span);
        }
    }
    buf.received = std::move(merged);
}

bool Reassembler::complete(const Buffer& buf) const {
    return buf.total_length && buf.received.size() == 1 && buf.received.front().first == 0 &&
           buf.received.front().last >= *buf.total_length;
}

void Reassembler::expire(sim::Time now) {
    while (!order_.empty() && order_.front().buf.deadline <= now) {
        erase(order_.begin());
        ++stats_.timeouts;
        if (counters_ != nullptr)
            counters_->inc(telemetry::Counter::IpDropReassemblyTimeout);
    }
}

void Reassembler::evict(PendingIt it) {
    erase(it);
    ++stats_.evictions;
    if (counters_ != nullptr) counters_->inc(telemetry::Counter::IpDropReassemblyOverflow);
}

void Reassembler::erase(PendingIt it) {
    bytes_ -= it->buf.data.size();
    index_.erase(it->key);
    order_.erase(it);
}

}  // namespace catenet::ip
