// Datagram reassembly (RFC 791 §3.2). Fragments are keyed by
// (src, dst, protocol, identification); partial datagrams are discarded
// after a timeout — classic soft state: losing a reassembly buffer costs
// one datagram, never a connection. Fixed limits on pending datagrams and
// buffered bytes bound what a fragment flood can hold: at a limit the
// oldest partial datagram is evicted, so memory and per-fragment work stay
// bounded whatever arrives.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "ip/ipv4_header.h"
#include "sim/simulator.h"
#include "telemetry/counters.h"
#include "util/byte_buffer.h"

namespace catenet::ip {

struct ReassemblyStats {
    std::uint64_t fragments_received = 0;
    std::uint64_t datagrams_completed = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t evictions = 0;  ///< partial datagrams dropped at a limit
};

class Reassembler {
public:
    /// Per-stack limits. The count admits any realistic set of concurrent
    /// fragmented datagrams; the byte limit, sixteen 64 KiB datagrams.
    static constexpr std::size_t kMaxPending = 256;
    static constexpr std::size_t kMaxBufferedBytes = std::size_t{1} << 20;

    Reassembler(sim::Simulator& sim, sim::Time timeout = sim::seconds(15));

    /// Adds a fragment. Returns the reassembled payload when this fragment
    /// completed the datagram, nullopt otherwise. `header` must describe a
    /// fragment (callers pass unfragmented datagrams straight through).
    std::optional<util::ByteBuffer> add_fragment(const Ipv4Header& header,
                                                 std::span<const std::uint8_t> payload);

    std::size_t pending() const noexcept { return order_.size(); }
    /// Bytes held by partial datagrams (their buffers' sizes).
    std::size_t buffered_bytes() const noexcept { return bytes_; }
    const ReassemblyStats& stats() const noexcept { return stats_; }

    /// Mirrors each reassembly timeout and eviction into the owning
    /// stack's IpDropReassemblyTimeout / IpDropReassemblyOverflow counter
    /// slots (nullptr = no mirroring).
    void set_counters(telemetry::CounterBlock* counters) noexcept {
        counters_ = counters;
    }

    /// Drops all partial datagrams (node restart).
    void clear() {
        index_.clear();
        order_.clear();
        bytes_ = 0;
    }

private:
    struct Key {
        std::uint32_t src;
        std::uint32_t dst;
        std::uint8_t protocol;
        std::uint16_t identification;
        auto operator<=>(const Key&) const = default;
    };

    struct Buffer {
        // Received byte ranges [first, last) with their data.
        struct Span {
            std::size_t first;
            std::size_t last;
        };
        util::ByteBuffer data;          // grows as fragments land
        std::vector<Span> received;     // coalesced ranges
        std::optional<std::size_t> total_length;  // known once MF=0 arrives
        sim::Time deadline;
    };

    struct Pending {
        Key key;
        Buffer buf;
    };
    using PendingIt = std::list<Pending>::iterator;

    void insert_range(Buffer& buf, std::size_t offset, std::span<const std::uint8_t> bytes);
    bool complete(const Buffer& buf) const;
    void expire(sim::Time now);
    void erase(PendingIt it);
    void evict(PendingIt it);

    sim::Simulator& sim_;
    sim::Time timeout_;
    /// Partial datagrams in creation order. The timeout is fixed, so this
    /// is also deadline order: expiry pops the front, and so does eviction
    /// (oldest first).
    std::list<Pending> order_;
    std::map<Key, PendingIt> index_;
    std::size_t bytes_ = 0;  ///< sum of buf.data.size() over order_
    ReassemblyStats stats_;
    telemetry::CounterBlock* counters_ = nullptr;
};

}  // namespace catenet::ip
