// The attachment point between a node and a network. The IP layer talks
// only to this interface, which is exactly the paper's goal-3 discipline:
// the internet layer may assume a network can carry a packet of reasonable
// size with nonzero probability and nothing else — no reliability, no
// ordering, no broadcast.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "link/packet.h"
#include "util/ip_address.h"

namespace catenet::link {

/// Channel-model outcomes (loss, corruption) on a link or LAN segment.
struct ChannelStats {
    std::uint64_t packets_lost = 0;       ///< dropped by the channel model
    std::uint64_t packets_corrupted = 0;  ///< delivered with flipped bits
};

struct NetIfStats {
    std::uint64_t packets_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t packets_received = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t send_failures = 0;  // down interface or unresolvable next hop
    std::uint64_t busy_ns = 0;  // time the transmitter spent clocking bits out
    // Burst-chain diagnostics (point-to-point ports only). Like the event
    // count they describe how delivery was batched, not what was
    // delivered, so twin comparisons across engine modes leave them out.
    std::uint64_t chain_runs = 0;   // chain fires that delivered two or more
    std::uint64_t chain_bails = 0;  // chain fires cut after a single packet
};

class NetIf {
public:
    // The packet is handed up by rvalue reference so the four-deep delivery
    // chain (channel event → port → deliver → IP receive) moves the Packet
    // once, at the end, instead of at every by-value hand-off. Lambdas that
    // take `Packet` by value still bind — the move happens at their call.
    using Receiver = std::function<void(Packet&&)>;

    /// Burst receiver: consumes burst items in order, advancing the clock
    /// to each item's arrival time, and returns how many it consumed (a
    /// bail on a pending event leaves the tail with the caller, to be
    /// redelivered by a real event). Installed only by stacks whose burst
    /// path is byte-identical to their per-packet path.
    using BurstReceiver = std::function<std::size_t(PacketBurst&)>;

    virtual ~NetIf() = default;

    /// Largest payload this network carries in one frame.
    virtual std::size_t mtu() const noexcept = 0;

    /// Hands a packet to the network for delivery toward `next_hop` (the
    /// link-layer resolves it; point-to-point links ignore it). Best
    /// effort: the packet may be queued, dropped, corrupted or reordered
    /// downstream and the caller will never know — by design.
    virtual void send(Packet packet, util::Ipv4Address next_hop) = 0;

    /// GSO hand-off (DESIGN.md §12): one mega-segment descriptor covering a
    /// whole train of wire segments. The default implementation makes every
    /// network GSO-capable by performing the late split here — one
    /// gso_split_segment() per wire segment, each fed to send() in order,
    /// which is definitionally identical to the per-segment path. Links may
    /// override to splice the split into their own admission machinery, but
    /// only under the same wire-identity contract.
    virtual void send_gso(const GsoDescriptor& d, util::Ipv4Address next_hop);

    virtual const std::string& name() const noexcept = 0;

    /// Installing a plain receiver (tests tap interfaces this way) clears
    /// any burst receiver: a tap must see the exact per-packet hand-off,
    /// so burst delivery falls back to the per-entry path.
    void set_receiver(Receiver receiver) {
        receiver_ = std::move(receiver);
        burst_receiver_ = nullptr;
    }

    /// Installs the burst fast path alongside the per-packet receiver.
    /// IpStack::add_interface is the only expected caller.
    void set_burst_receiver(BurstReceiver receiver) {
        burst_receiver_ = std::move(receiver);
    }

    /// True when a whole run may be handed to deliver_burst(). A down
    /// interface is not burst-capable: the fallback per-entry path applies
    /// deliver()'s silent-discard rule at each packet's own arrival time.
    bool burst_capable() const noexcept {
        return up_ && static_cast<bool>(burst_receiver_);
    }

    /// Administrative / failure state. A down interface silently discards
    /// traffic in both directions (a dead transceiver).
    bool is_up() const noexcept { return up_; }
    virtual void set_up(bool up) {
        if (up_ == up) return;
        up_ = up;
        for (const auto& observer : state_observers_) observer(up);
    }

    /// Registers a carrier-state observer (routing protocols react to
    /// interface death immediately rather than waiting for timeouts).
    void add_state_observer(std::function<void(bool up)> observer) {
        state_observers_.push_back(std::move(observer));
    }

    /// Observer for egress-queue drops: the node that owns the interface
    /// sees which datagram it just threw away (Source Quench hooks here —
    /// the one piece of feedback a 1988 gateway could give).
    using DropObserver = std::function<void(const Packet&)>;
    void set_drop_observer(DropObserver observer) { drop_observer_ = std::move(observer); }

    /// Passive wire tap for equivalence tests: observes (digest, size) of
    /// every packet this interface delivers up its stack, in delivery
    /// order, WITHOUT disabling burst delivery (unlike set_receiver, which
    /// must force the per-packet path). The digest is FNV-1a over the wire
    /// bytes, so two runs whose digest streams match delivered
    /// byte-identical wire streams in the same order.
    using WireTap = std::function<void(std::uint64_t digest, std::uint32_t size)>;
    void set_wire_tap(WireTap tap) { wire_tap_ = std::move(tap); }

    /// FNV-1a over a byte range (the wire tap's digest function).
    static std::uint64_t wire_digest(std::span<const std::uint8_t> bytes) noexcept {
        std::uint64_t h = 1469598103934665603ull;
        for (const std::uint8_t b : bytes) {
            h ^= b;
            h *= 1099511628211ull;
        }
        return h;
    }

    /// Virtual so transmitters with deferred accounting (the burst
    /// in-flight ring) can settle up to now() before anyone reads.
    virtual const NetIfStats& stats() const noexcept { return stats_; }

    /// The IP address bound to this interface (assigned by the builder).
    util::Ipv4Address address() const noexcept { return address_; }
    void set_address(util::Ipv4Address addr) noexcept { address_ = addr; }

protected:
    void deliver(Packet&& packet) {
        if (!up_ || !receiver_) return;
        ++stats_.packets_received;
        stats_.bytes_received += packet.size();
        // The per-packet path may feed a custom receiver (tests capture
        // raw bytes here), so a deferred checksum is always settled.
        if (packet.csum_deferred) materialize_checksum(packet);
        if (wire_tap_) {
            wire_tap_(wire_digest(packet.bytes),
                      static_cast<std::uint32_t>(packet.size()));
        }
        receiver_(std::move(packet));
    }

    /// Hands a run up the stack. Receive stats accrue for exactly the
    /// consumed prefix, after the receiver returns but before any pending
    /// event fires — so a bailed-to event observes the same stats it would
    /// have seen under per-packet delivery. Sizes are snapshotted first:
    /// the receiver moves consumed packets out of their ring slots. The
    /// wire tap likewise digests every slot up front (the bytes are gone
    /// after consumption) but commits only the consumed prefix, so a
    /// bailed tail is reported once, on redelivery.
    std::size_t deliver_burst(PacketBurst& burst) {
        std::array<std::uint32_t, kBurst> sizes;
        std::array<std::uint64_t, kBurst> digests;
        for (std::size_t i = 0; i < burst.count; ++i) {
            sizes[i] = static_cast<std::uint32_t>(burst.items[i].packet->size());
            if (wire_tap_) {
                // The burst receiver is always the vouch-trusting IP stack
                // (custom receivers force the per-packet path), so the tap
                // digest is the only byte observer on this path.
                if (burst.items[i].packet->csum_deferred) {
                    materialize_checksum(*burst.items[i].packet);
                }
                digests[i] = wire_digest(burst.items[i].packet->bytes);
            }
        }
        const std::size_t consumed = burst_receiver_(burst);
        for (std::size_t i = 0; i < consumed; ++i) {
            ++stats_.packets_received;
            stats_.bytes_received += sizes[i];
            if (wire_tap_) wire_tap_(digests[i], sizes[i]);
        }
        return consumed;
    }

    void notify_drop(const Packet& packet) {
        if (drop_observer_) drop_observer_(packet);
    }

    Receiver receiver_;
    BurstReceiver burst_receiver_;
    DropObserver drop_observer_;
    WireTap wire_tap_;
    std::vector<std::function<void(bool)>> state_observers_;
    NetIfStats stats_;
    bool up_ = true;
    util::Ipv4Address address_;
};

}  // namespace catenet::link
