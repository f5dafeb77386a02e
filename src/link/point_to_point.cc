#include "link/point_to_point.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

namespace catenet::link {

// One direction of the duplex link: owns the egress queue and the
// transmitter state machine, and knows its peer so it can deliver.
//
// Two engines share this state machine. The legacy per-packet engine
// schedules one delivery event per packet (transmit()). The burst engine
// (DESIGN.md §"burst forwarding") commits a whole backlog run to the wire
// schedule at once: entries move into an in-flight ring, ONE chain event
// per direction fires at the ring head's arrival, and the chain walks the
// run by advancing the clock to each arrival with
// Simulator::advance_if_idle — bailing back to a real event the moment any
// other event would interleave. Transmit-side statistics settle lazily
// (an entry's stats accrue when the clock passes its serialization start),
// so every observer reads exactly what per-packet accounting would show.
class PointToPointLink::Port final : public NetIf {
public:
    Port(PointToPointLink& link, LinkParams params, std::string name)
        : link_(link),
          params_(params),
          name_(std::move(name)),
          queue_(std::make_unique<DropTailQueue>(params.queue_capacity_packets)) {
        refresh_burst_mode();
    }

    std::size_t mtu() const noexcept override { return params_.mtu; }
    const std::string& name() const noexcept override { return name_; }

    void send(Packet packet, util::Ipv4Address /*next_hop*/) override {
        if (!up_ || !link_.up_) {
            ++stats_.send_failures;
            link_.sim_.buffer_pool().recycle(std::move(packet.bytes));
            return;
        }
        const sim::Time now = link_.sim_.now();
        packet.enqueued = now;
        if (now >= busy_until_ && queue_->empty()) {
            // Idle wire, no backlog: any discipline would hand this exact
            // packet straight back, so it skips the queue entirely.
            // Stream rule: a send behind entries still propagating
            // (ring_count_ != 0) joins the in-flight ring, so runs stay
            // contiguous and deliver as bursts. A send at the serialization
            // boundary (now == busy_until_) starts a ring run only while
            // this port is streaming (hold_off_ == 0): once a chain fire
            // bails after a single packet, the stream is contended — other
            // traffic interleaves every arrival — and the ring would only
            // add bookkeeping to a per-packet schedule, so such sends go
            // per packet until a run delivers again or the hold-off runs
            // out and one probes the ring. Everything else (a send after a
            // strictly positive idle gap) takes the per-packet transmit,
            // which is exact here: burst eligibility guarantees no channel
            // randomness (chance(0) never draws), so one delivery event at
            // now + tx + propagation is the identical, and cheapest,
            // schedule.
            if (burst_ && (ring_count_ != 0 || (now == busy_until_ && stream_open()))) {
                transmit_burst_single(std::move(packet), now);
            } else {
                transmit(std::move(packet));
            }
            return;
        }
        if (burst_ && busy_until_ > now) {
            // Admission must mirror per-packet draining: ring entries whose
            // serialization has not begun would still occupy queue slots
            // under the per-packet engine, so they count against the cap.
            settle(now);
            const std::size_t unstarted = ring_count_ - ring_settled_;
            if (unstarted != 0 &&
                queue_->packets() + unstarted >= queue_->capacity_packets()) {
                queue_->record_rejection(packet);
                notify_drop(packet);
                link_.sim_.buffer_pool().recycle(std::move(packet.bytes));
                return;
            }
        }
        // PacketQueue contract: on rejection the argument is untouched, so
        // the drop observer can still inspect it.
        if (!queue_->enqueue(std::move(packet))) {
            notify_drop(packet);
            link_.sim_.buffer_pool().recycle(std::move(packet.bytes));
            return;
        }
        if (now >= busy_until_) {
            start_transmission();
        } else if (!kick_scheduled_) {
            // The wire is mid-serialization; wake up exactly when it frees.
            kick_scheduled_ = true;
            link_.sim_.schedule_after(busy_until_ - now, [this] { kick(); });
        }
    }

    void set_up(bool up) override {
        NetIf::set_up(up);
        if (up) return;
        queue_->clear();
        if (!burst_ || ring_count_ == ring_settled_) return;
        // A dead transceiver loses its queued packets; ring entries whose
        // serialization has not begun are still "queued" in per-packet
        // terms, so they vanish the same way — silently, with no stats to
        // roll back (settlement never reached them). Entries already on
        // the wire keep propagating and face the carrier check at their
        // own arrival, exactly like per-packet delivery events.
        settle(link_.sim_.now());
        while (ring_count_ > ring_settled_) {
            FlightEntry& e = ring_at(ring_count_ - 1);
            link_.sim_.buffer_pool().recycle(std::move(e.packet.bytes));
            --ring_count_;
        }
        if (ring_settled_ > 0) {
            busy_until_ = ring_at(ring_settled_ - 1).arrival - params_.propagation_delay;
        }
        if (ring_count_ == 0 && chain_pending_) {
            link_.sim_.cancel(chain_id_);
            chain_pending_ = false;
        }
    }

    const NetIfStats& stats() const noexcept override {
        // Deferred-settlement read: accrue every serialization the clock
        // has passed, so gauges and reports see per-packet-exact numbers.
        const_cast<Port*>(this)->settle(link_.sim_.now());
        return stats_;
    }

    void set_peer(Port* peer) noexcept { peer_ = peer; }
    void set_queue(std::unique_ptr<PacketQueue> q) {
        queue_ = std::move(q);
        refresh_burst_mode();
    }
    PacketQueue& queue() noexcept { return *queue_; }
    const ChannelStats& channel_stats() const noexcept { return channel_stats_; }
    void flush() { queue_->clear(); }

    std::size_t queued_depth() noexcept {
        settle(link_.sim_.now());
        return queue_->packets() + (ring_count_ - ring_settled_);
    }

    void receive_from_peer(Packet&& packet) { deliver(std::move(packet)); }

private:
    /// One committed transmission: its packet (until delivery moves it
    /// out), its wire schedule, and a size snapshot so settlement never
    /// depends on the packet still being present.
    struct FlightEntry {
        Packet packet;
        sim::Time tx_start;
        sim::Time arrival;  ///< serialization end + propagation
        std::uint32_t size_bytes = 0;
    };
    // Clocks the head-of-queue packet onto the wire. The serialization and
    // propagation phases collapse into ONE scheduled event: channel
    // outcomes (loss, corruption, jitter) are drawn at transmission start
    // and delivery lands at now + tx + propagation. A separate wake-up
    // ("kick") at busy_until_ is scheduled only when a backlog actually
    // exists, so the uncongested fast path costs a single event per hop.
    void start_transmission() {
        if (burst_) {
            drain_burst();
            return;
        }
        auto next = queue_->dequeue();
        if (!next) return;
        transmit(std::move(*next));
        if (!queue_->empty() && !kick_scheduled_) {
            kick_scheduled_ = true;
            link_.sim_.schedule_after(busy_until_ - link_.sim_.now(), [this] { kick(); });
        }
    }

    // --- burst engine ---------------------------------------------------

    /// The burst gate. A run is committed to the wire schedule before its
    /// packets individually transmit, which is only equivalent to
    /// per-packet operation when (a) the channel draws no randomness per
    /// packet (loss/corruption/jitter draws are ordered by transmit
    /// events), and (b) the queue is a FIFO whose future dequeue order
    /// cannot be changed by later arrivals.
    void refresh_burst_mode() noexcept {
        burst_ = params_.burst > 1 && params_.drop_probability <= 0.0 &&
                 params_.bit_error_rate <= 0.0 && params_.jitter <= sim::Time(0) &&
                 queue_->fifo_burst_drainable();
    }

    std::size_t burst_limit() const noexcept { return std::min(params_.burst, kBurst); }

    FlightEntry& ring_at(std::size_t i) noexcept {
        return ring_[(ring_head_ + i) & (ring_.size() - 1)];
    }

    void ring_push(FlightEntry&& e) {
        if (ring_count_ == ring_.size()) grow_ring();
        ring_[(ring_head_ + ring_count_) & (ring_.size() - 1)] = std::move(e);
        ++ring_count_;
    }

    void ring_pop_front(std::size_t n) noexcept {
        ring_head_ = (ring_head_ + n) & (ring_.size() - 1);
        ring_count_ -= n;
        ring_settled_ -= n;
    }

    void grow_ring() {
        // Doubles until it covers the link's peak in-flight population
        // (bandwidth-delay product in packets), then never allocates again.
        std::vector<FlightEntry> bigger(ring_.empty() ? 2 * kBurst : 2 * ring_.size());
        for (std::size_t i = 0; i < ring_count_; ++i) bigger[i] = std::move(ring_at(i));
        ring_ = std::move(bigger);
        ring_head_ = 0;
    }

    /// Accrues transmit-side stats for every entry whose serialization has
    /// begun by `now` — the instant per-packet transmit() would have
    /// accrued them. Entries settle in ring order (tx_start is monotone).
    void settle(sim::Time now) noexcept {
        while (ring_settled_ < ring_count_) {
            const FlightEntry& e = ring_[(ring_head_ + ring_settled_) & (ring_.size() - 1)];
            if (e.tx_start > now) break;
            ++stats_.packets_sent;
            stats_.bytes_sent += e.size_bytes;
            stats_.busy_ns += static_cast<std::uint64_t>(
                (e.arrival - params_.propagation_delay - e.tx_start).nanos());
            ++ring_settled_;
        }
    }

    void schedule_chain(sim::Time when) {
        if (chain_pending_) {
            // reschedule() re-sequences the event, so a bail's resumption
            // fires after any same-nanosecond event scheduled before it —
            // the same FIFO tie rule a freshly scheduled event obeys.
            link_.sim_.reschedule(chain_id_, when);
        } else {
            chain_id_ = link_.sim_.schedule_at(when, [this] { chain_fire(); });
            chain_pending_ = true;
        }
    }

    /// Idle-wire fast path in burst mode: same wire math as transmit(),
    /// but the packet rides the in-flight ring and the (single) chain
    /// event instead of a dedicated delivery event.
    void transmit_burst_single(Packet packet, sim::Time now) {
        const auto tx = transmission_time(packet.size());
        FlightEntry e;
        e.tx_start = now;
        e.arrival = now + tx + params_.propagation_delay;
        e.size_bytes = static_cast<std::uint32_t>(packet.size());
        e.packet = std::move(packet);
        ring_push(std::move(e));
        busy_until_ = now + tx;
        settle(now);
        // Earlier entries may still be propagating; the chain reaches this
        // one in arrival order (arrivals are monotone: FIFO wire).
        if (!chain_pending_) schedule_chain(ring_at(0).arrival);
    }

    /// Commits up to one burst of backlog to the wire schedule in a single
    /// wake-up: the per-packet engine would re-fire a kick per packet at
    /// each serialization boundary; here the whole run's timeline is fixed
    /// now and the per-boundary wake-ups disappear.
    void drain_burst() {
        const sim::Time now = link_.sim_.now();
        sim::Time start = now;
        std::size_t n = 0;
        const std::size_t limit = burst_limit();
        while (n < limit) {
            auto next = queue_->dequeue();
            if (!next) break;
            const auto tx = transmission_time(next->size());
            FlightEntry e;
            e.tx_start = start;
            start = start + tx;
            e.arrival = start + params_.propagation_delay;
            e.size_bytes = static_cast<std::uint32_t>(next->size());
            e.packet = std::move(*next);
            ring_push(std::move(e));
            ++n;
        }
        if (n == 0) return;
        busy_until_ = start;
        settle(now);
        if (!chain_pending_) schedule_chain(ring_at(0).arrival);
        if (!queue_->empty() && !kick_scheduled_) {
            kick_scheduled_ = true;
            link_.sim_.schedule_after(busy_until_ - now, [this] { kick(); });
        }
    }

    /// The chain event: fires at the ring head's arrival, delivers runs,
    /// and walks forward through subsequent arrivals while the engine is
    /// idle. Every delivered packet is processed at exactly its own
    /// arrival time — advance_if_idle moves the clock and counts the event
    /// the per-packet engine would have fired, or refuses, in which case
    /// the chain reschedules and the pending event sees fully settled
    /// state. A run cut by a pending event reschedules directly: the
    /// refusal is already known. The fire's outcome drives the stream
    /// rule in send(): a run of two or more reopens the stream, a bail
    /// after one packet holds it off.
    void chain_fire() {
        chain_pending_ = false;
        std::size_t delivered = 0;
        for (;;) {
            const Run run = deliver_run();
            delivered += run.consumed;
            settle(link_.sim_.now());
            ring_pop_front(run.consumed);
            if (ring_count_ == 0) break;
            const sim::Time next_arrival = ring_at(0).arrival;
            if (run.cut || !link_.sim_.advance_if_idle(next_arrival)) {
                schedule_chain(next_arrival);
                if (delivered == 1) {
                    ++stats_.chain_bails;
                    if (hold_off_ == 0) {
                        hold_off_ = backoff_;
                        backoff_ = std::min(2 * backoff_, kMaxHoldOff);
                    }
                }
                break;
            }
        }
        if (delivered >= 2) {
            ++stats_.chain_runs;
            hold_off_ = 0;
            backoff_ = kMinHoldOff;
        }
    }

    /// Stream rule (see send()): may a boundary send start a ring run? A
    /// held-off port answers no, counting the hold-off down; the send that
    /// finds it spent probes the ring again.
    bool stream_open() noexcept {
        if (hold_off_ == 0) return true;
        --hold_off_;
        return false;
    }

    /// What one deliver_run() consumed, and whether the next ring entry is
    /// known to be refused by advance_if_idle (a pending event fires at or
    /// before its arrival).
    struct Run {
        std::size_t consumed;
        bool cut;
    };

    /// Delivers a prefix of the ring (clock at the head entry's arrival);
    /// always consumes at least one entry. One engine peek bounds the
    /// prefix to the arrivals no pending event precedes, so neither the
    /// burst nor the receiver touches entries it cannot consume. The
    /// receiver may still stop early: processing a packet can schedule an
    /// event ahead of the next arrival.
    Run deliver_run() {
        std::size_t run = std::min(ring_count_, burst_limit());
        bool cut = false;
        if (run > 1) {
            const std::int64_t next_event =
                link_.sim_.next_event_ns(ring_at(run - 1).arrival.nanos());
            std::size_t k = 1;
            while (k < run && ring_at(k).arrival.nanos() < next_event) ++k;
            cut = k < run;
            run = k;
        }
        std::size_t consumed = 0;
        if (peer_ != nullptr && link_.up_ && peer_->burst_capable()) {
            PacketBurst burst;
            for (std::size_t i = 0; i < run; ++i) {
                FlightEntry& e = ring_at(i);
                burst.items[i] = PacketBurst::Item{&e.packet, e.arrival};
            }
            burst.count = run;
            consumed = peer_->deliver_burst(burst);
        } else {
            // Per-entry fallback (down link, no peer, or a tap receiver):
            // byte-for-byte the per-packet delivery lambda, at each
            // packet's own arrival time.
            for (; consumed < run; ++consumed) {
                FlightEntry& e = ring_at(consumed);
                if (consumed > 0 && !link_.sim_.advance_if_idle(e.arrival)) break;
                if (peer_ != nullptr && link_.up_) {
                    peer_->receive_from_peer(std::move(e.packet));
                } else {
                    // In flight when the link failed: lost on the wire.
                    ++channel_stats_.packets_lost;
                    link_.sim_.buffer_pool().recycle(std::move(e.packet.bytes));
                }
            }
        }
        return Run{consumed, cut || consumed < run};
    }

    // One-entry memo over LinkParams::transmission_time. A port in steady
    // state clocks a stream of same-sized packets (full segments one way,
    // bare ACKs the other), and the 64-bit ceiling division is the single
    // most expensive instruction left in the per-hop path; the memo turns
    // it into a compare. A size change is just one recomputation.
    sim::Time transmission_time(std::size_t bytes) {
        if (bytes != tx_memo_bytes_) {
            tx_memo_bytes_ = bytes;
            tx_memo_ = params_.transmission_time(bytes);
        }
        return tx_memo_;
    }

    void transmit(Packet packet) {
        const auto tx = transmission_time(packet.size());
        busy_until_ = link_.sim_.now() + tx;
        ++stats_.packets_sent;
        stats_.bytes_sent += packet.size();
        stats_.busy_ns += static_cast<std::uint64_t>(tx.nanos());
        if (link_.rng_.chance(params_.drop_probability)) {
            ++channel_stats_.packets_lost;
            link_.sim_.buffer_pool().recycle(std::move(packet.bytes));
            return;
        }
        maybe_corrupt(packet);
        sim::Time delay = tx + params_.propagation_delay;
        if (params_.jitter > sim::Time(0)) {
            delay += sim::Time(static_cast<std::int64_t>(
                link_.rng_.uniform(0, static_cast<std::uint64_t>(params_.jitter.nanos()))));
        }
        // The packet rides inside the event slot itself (InlineCallback's
        // capture budget covers this + Packet), so any number of packets can
        // be concurrently propagating without heap traffic.
        link_.sim_.schedule_after(delay, [this, p = std::move(packet)]() mutable {
            if (peer_ != nullptr && link_.up_) {
                peer_->receive_from_peer(std::move(p));
            } else {
                // In flight when the link failed: lost on the wire.
                ++channel_stats_.packets_lost;
                link_.sim_.buffer_pool().recycle(std::move(p.bytes));
            }
        });
    }

    void kick() {
        kick_scheduled_ = false;
        const sim::Time now = link_.sim_.now();
        if (now >= busy_until_) {
            start_transmission();
        } else if (!queue_->empty()) {
            // A same-timestamp send beat us to the wire; chase the new
            // busy horizon.
            kick_scheduled_ = true;
            link_.sim_.schedule_after(busy_until_ - now, [this] { kick(); });
        }
    }

    void maybe_corrupt(Packet& packet) {
        if (params_.bit_error_rate <= 0.0 || packet.bytes.empty()) return;
        const double bits = static_cast<double>(packet.size()) * 8.0;
        // P(any bit flips) = 1 - (1 - ber)^bits; for the small rates we
        // model, flipping one to three random bits on a hit is faithful.
        const double p_hit = 1.0 - std::pow(1.0 - params_.bit_error_rate, bits);
        if (!link_.rng_.chance(p_hit)) return;
        ++channel_stats_.packets_corrupted;
        // A deferred checksum must hit the wire before the bits do: the
        // receiver's verification fold runs over [materialized|corrupted]
        // bytes exactly as it would over an eagerly-encoded segment.
        if (packet.csum_deferred) materialize_checksum(packet);
        // Flipped bits invalidate any encoder-computed checksum: the
        // receiver must fall back to the full verification fold.
        packet.csum_ok = false;
        const auto flips = link_.rng_.uniform(1, 3);
        for (std::uint64_t i = 0; i < flips; ++i) {
            const auto bit = link_.rng_.uniform(0, packet.size() * 8 - 1);
            packet.bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
    }

    PointToPointLink& link_;
    LinkParams params_;
    std::string name_;
    std::unique_ptr<PacketQueue> queue_;
    Port* peer_ = nullptr;
    sim::Time busy_until_;        ///< the wire is serializing until this time
    bool kick_scheduled_ = false; ///< a wake-up at busy_until_ is pending
    std::size_t tx_memo_bytes_ = SIZE_MAX;  ///< last size fed to transmission_time
    sim::Time tx_memo_;                     ///< its serialization delay
    ChannelStats channel_stats_;

    // Burst engine state. The ring holds committed transmissions in wire
    // order: [0, ring_settled_) have accrued stats, [ring_settled_,
    // ring_count_) have not begun serializing. One chain event per
    // direction (chain_id_) covers every undelivered entry.
    bool burst_ = false;
    std::vector<FlightEntry> ring_;  ///< power-of-two capacity, index-masked
    std::size_t ring_head_ = 0;
    std::size_t ring_count_ = 0;
    std::size_t ring_settled_ = 0;
    sim::EventId chain_id_ = sim::kInvalidEventId;
    bool chain_pending_ = false;
    /// Stream rule state (see send()). A chain fire that bails after one
    /// packet holds boundary sends off the ring for hold_off_ sends; a run
    /// of two or more clears it. A forwarding port fed at exactly line rate
    /// never builds the backlog that would deliver such a run, so the
    /// hold-off expires and the next boundary send probes the ring; each
    /// probe that bails again doubles the next hold-off, up to a cap.
    static constexpr std::uint32_t kMinHoldOff = 64;
    static constexpr std::uint32_t kMaxHoldOff = 4096;
    std::uint32_t hold_off_ = 0;  ///< boundary sends left before a probe
    std::uint32_t backoff_ = kMinHoldOff;
};

PointToPointLink::PointToPointLink(sim::Simulator& sim, util::Rng& parent_rng,
                                   const LinkParams& params, std::string name)
    : PointToPointLink(sim, parent_rng, params, params, std::move(name)) {}

PointToPointLink::PointToPointLink(sim::Simulator& sim, util::Rng& parent_rng,
                                   const LinkParams& a_to_b, const LinkParams& b_to_a,
                                   std::string name)
    : sim_(sim), rng_(parent_rng.fork()) {
    a_ = std::make_unique<Port>(*this, a_to_b, name + ":a");
    b_ = std::make_unique<Port>(*this, b_to_a, name + ":b");
    a_->set_peer(b_.get());
    b_->set_peer(a_.get());
}

PointToPointLink::~PointToPointLink() = default;

NetIf& PointToPointLink::port_a() noexcept { return *a_; }
NetIf& PointToPointLink::port_b() noexcept { return *b_; }

void PointToPointLink::set_up(bool up) {
    up_ = up;
    // Carrier state is visible at both attachments: a cut cable reads as a
    // dead interface, which routing protocols use to withdraw routes.
    a_->set_up(up);
    b_->set_up(up);
    if (!up) {
        a_->flush();
        b_->flush();
    }
}

const ChannelStats& PointToPointLink::stats_a_to_b() const noexcept {
    return a_->channel_stats();
}
const ChannelStats& PointToPointLink::stats_b_to_a() const noexcept {
    return b_->channel_stats();
}

void PointToPointLink::set_queue_a(std::unique_ptr<PacketQueue> q) { a_->set_queue(std::move(q)); }
void PointToPointLink::set_queue_b(std::unique_ptr<PacketQueue> q) { b_->set_queue(std::move(q)); }
PacketQueue& PointToPointLink::queue_a() noexcept { return a_->queue(); }
PacketQueue& PointToPointLink::queue_b() noexcept { return b_->queue(); }

std::size_t PointToPointLink::queue_depth_a() noexcept { return a_->queued_depth(); }
std::size_t PointToPointLink::queue_depth_b() noexcept { return b_->queued_depth(); }

}  // namespace catenet::link
