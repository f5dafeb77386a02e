// Longest-prefix-match forwarding table. Shared by hosts (usually one
// connected route plus a default) and gateways (populated statically or by
// the routing protocols in src/routing/).
//
// Built for the forwarding hot path: routes are interned in a stable arena
// so lookup() hands out a pointer (no Route copy, no string copy per
// packet), and a generation counter — bumped on every mutation — lets
// callers layer soft-state caches on top that can never serve a stale
// route (see IpStack's destination cache).
//
// Storage is a flat pointer array kept sorted by (descending prefix
// length, ascending prefix address): every operation — exact find,
// install, remove, and each per-length probe of the longest-prefix match —
// is a binary search, and a 33-bit occupancy mask skips empty lengths, so
// lookup costs O(distinct-lengths × log n) instead of a linear scan.
// Population-scale builds go through bulk_load(): at most one sort per
// batch (none when the batch arrives in key order) rather than one ordered
// insertion per route.
//
// Above a size threshold, lookup() switches to FibFlat — a lazily built
// DIR-24-8-style stride structure (DESIGN.md §13) that answers any LPM in
// at most three dependent array loads, with no pointer-chasing
// comparisons. The flat form is pure soft state over the sorted array: it
// is rebuilt on the first lookup after the table generation moved, so it
// can never serve a route the authoritative array no longer holds.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <span>
#include <string_view>
#include <vector>

#include "util/ip_address.h"

namespace catenet::ip {

/// Provenance of an installed route: who put it there. Distributed-
/// management experiments audit this; flush_routes() keys off it. A small
/// tag rather than a string so that Route is trivially copyable and a
/// per-packet lookup never touches the heap.
class RouteOrigin {
public:
    enum class Tag : std::uint8_t { Connected, Static, Dv, Egp };

    constexpr RouteOrigin() noexcept = default;  ///< "static"
    constexpr RouteOrigin(Tag tag) noexcept : tag_(tag) {}  // NOLINT(google-explicit-constructor)
    /// Named construction keeps the seed's string-based call sites
    /// (`route.origin = "dv"`) working; unknown names throw.
    RouteOrigin(std::string_view name) : tag_(parse(name)) {}  // NOLINT(google-explicit-constructor)
    RouteOrigin(const char* name) : tag_(parse(name)) {}  // NOLINT(google-explicit-constructor)

    constexpr Tag tag() const noexcept { return tag_; }

    constexpr std::string_view view() const noexcept {
        switch (tag_) {
            case Tag::Connected: return "connected";
            case Tag::Static: return "static";
            case Tag::Dv: return "dv";
            case Tag::Egp: return "egp";
        }
        return "static";
    }

    friend constexpr bool operator==(RouteOrigin a, RouteOrigin b) noexcept {
        return a.tag_ == b.tag_;
    }
    // Exact-type overloads so `origin == "dv"` is unambiguous (both
    // RouteOrigin and string_view are one implicit conversion away from a
    // string literal). Comparing against an unknown name is false, not an
    // error — remove_by_origin("bogus") must be a harmless no-op.
    friend constexpr bool operator==(RouteOrigin a, std::string_view b) noexcept {
        return a.view() == b;
    }
    friend constexpr bool operator==(RouteOrigin a, const char* b) noexcept {
        return a.view() == std::string_view(b);
    }

private:
    static Tag parse(std::string_view name);

    Tag tag_ = Tag::Static;
};

std::ostream& operator<<(std::ostream& os, RouteOrigin origin);

struct Route {
    util::Ipv4Prefix prefix;
    /// Unspecified means "directly connected": forward to the destination
    /// itself on the output interface.
    util::Ipv4Address next_hop;
    std::size_t ifindex = 0;
    /// Routing-protocol metric (hop count for DV); 0 for connected/static.
    std::uint32_t metric = 0;
    RouteOrigin origin;
};

/// What lookup()/find() return: a nullable reference to an interned Route.
/// Pointer-shaped (one word, no copy) but optional-flavored so call sites
/// written against the seed's std::optional<Route> keep reading naturally.
/// The pointee lives as long as the table and is updated in place when the
/// same prefix is re-installed.
class RouteRef {
public:
    constexpr RouteRef() noexcept = default;
    constexpr explicit RouteRef(const Route* route) noexcept : route_(route) {}

    constexpr bool has_value() const noexcept { return route_ != nullptr; }
    constexpr explicit operator bool() const noexcept { return route_ != nullptr; }
    constexpr const Route* operator->() const noexcept { return route_; }
    constexpr const Route& operator*() const noexcept { return *route_; }
    constexpr const Route* get() const noexcept { return route_; }

private:
    const Route* route_ = nullptr;
};

/// Flattened longest-prefix-match index (DIR-24-8 style, DESIGN.md §13):
/// a 4096-entry root array over address bits [31:20], lazily grown 4096-
/// entry chunks over bits [19:8] (one per populated /12), and 256-entry
/// tbl8 leaves over bits [7:0] (one per /24 containing a >24-bit prefix).
/// Every entry is a 16-bit value: either a leaf (index into the owning
/// table's sorted route array, or the no-route sentinel) or, tagged by the
/// high bit, the index of the next-level array. A lookup is therefore one
/// to three dependent loads and zero comparisons against route keys —
/// O(1) in the table size — while memory stays proportional to the
/// populated address space, not to 2^24 (the catenet's 10.x/11.x subnets
/// fit in a handful of chunks). Built in one pass over the routes,
/// shortest prefix first, so painting a route's span only ever overwrites
/// entries written by shorter (less specific) prefixes.
class FibFlat {
public:
    /// Route indices must fit in 15 bits alongside the sentinel; tables
    /// beyond this stay on the binary-search path.
    static constexpr std::size_t kMaxRoutes = 0x7FFE;

    /// Rebuilds from a route array sorted by (descending length,
    /// ascending address) — RoutingTable's invariant order.
    void build(std::span<Route* const> ordered);

    /// Index into the `ordered` array build() saw, or npos for no route.
    static constexpr std::uint16_t npos = 0x7FFF;
    std::uint16_t lookup(std::uint32_t addr) const noexcept {
        std::uint16_t v = l0_[addr >> 20];
        if (v & kPtr) {
            v = chunks_[v & kIdx][(addr >> 8) & 0xFFF];
            if (v & kPtr) v = tbl8_[v & kIdx][addr & 0xFF];
        }
        return v;
    }

    bool built() const noexcept { return !l0_.empty(); }
    void clear() noexcept;
    /// Resident footprint of the stride arrays (telemetry/tests).
    std::size_t bytes() const noexcept;

private:
    static constexpr std::uint16_t kPtr = 0x8000;  ///< entry tags a child index
    static constexpr std::uint16_t kIdx = 0x7FFF;

    std::uint16_t* ensure_chunk(std::uint32_t slot);
    std::uint16_t* ensure_tbl8(std::uint16_t* chunk, std::uint32_t entry);

    /// Root: bits [31:20]. Empty until the first build — a host table that
    /// never crosses the threshold allocates nothing here.
    std::vector<std::uint16_t> l0_;
    std::vector<std::array<std::uint16_t, 4096>> chunks_;
    std::vector<std::array<std::uint16_t, 256>> tbl8_;
};

class RoutingTable {
public:
    /// Installs or replaces the route for exactly this prefix. A replaced
    /// route is updated in place: pointers previously returned for the
    /// prefix stay valid and observe the new contents. Incremental: one
    /// binary search plus one ordered insertion, never a re-sort.
    void install(const Route& route);

    /// Batch install: same replace-or-insert semantics as install() per
    /// entry (later duplicates in the batch win, matching sequential
    /// installs), but new routes are appended and merged with ONE merge
    /// pass. A batch strictly increasing in the table's key order (length
    /// descending, then address ascending) skips the dedup sort; any other
    /// batch pays one. The topology generator's route-computation path —
    /// a hundred thousand installs arrive as one sorted batch per node.
    /// Bumps the generation once for a non-empty batch.
    void bulk_load(std::span<const Route> routes);

    /// The table's key order: longer prefixes first, then ascending
    /// address. A bulk_load batch built in this order skips its sort.
    static bool precedes(const util::Ipv4Prefix& a, const util::Ipv4Prefix& b) noexcept {
        if (a.length() != b.length()) return a.length() > b.length();
        return a.address().value() < b.address().value();
    }

    /// Removes the route for exactly this prefix; returns whether found.
    bool remove(const util::Ipv4Prefix& prefix);

    /// Removes every route whose origin matches (e.g. flush "dv" routes).
    void remove_by_origin(std::string_view origin);

    /// Longest-prefix match. The referenced Route is interned: valid for
    /// the table's lifetime, never copied per lookup. Tables at or above
    /// flat_threshold() answer through FibFlat (rebuilt lazily after any
    /// mutation); smaller tables use the per-length binary search, so host
    /// tables of two or three routes never pay for stride arrays.
    RouteRef lookup(util::Ipv4Address dst) const;

    /// The per-length binary-search LPM over the sorted array — the
    /// reference implementation the flattened path must agree with (the
    /// differential property test drives both) and the small-table path.
    RouteRef lookup_scan(util::Ipv4Address dst) const;

    /// Route-count floor at which lookup() switches to the flattened FIB.
    /// Tests pin it low to force the flat path; bench ablations pin it to
    /// SIZE_MAX to disable it. Dropping below the threshold releases the
    /// stride arrays.
    std::size_t flat_threshold() const noexcept { return flat_threshold_; }
    void set_flat_threshold(std::size_t threshold) noexcept {
        flat_threshold_ = threshold;
    }
    /// True when the last lookup() was answered by the flattened FIB
    /// (introspection for tests and the scale bench).
    bool flat_active() const noexcept {
        return fib_generation_ == generation_ && fib_.built();
    }

    /// Exact-prefix fetch (for routing protocols comparing metrics).
    RouteRef find(const util::Ipv4Prefix& prefix) const;

    /// Snapshot of the table in longest-prefix-first order.
    std::vector<Route> routes() const;

    std::size_t size() const noexcept { return ordered_.size(); }

    /// Bumped by every mutation (install, remove, remove_by_origin) that
    /// changes the table. Soft-state caches compare generations instead of
    /// registering invalidation hooks: a stale cache line is simply one
    /// whose generation no longer matches, and dropping it costs one LPM.
    std::uint64_t generation() const noexcept { return generation_; }

private:
    Route* acquire_node(const Route& route);
    /// Iterator to the route with exactly this (length, address) key, or
    /// ordered_.end() — one binary search.
    std::vector<Route*>::iterator find_slot(const util::Ipv4Prefix& prefix);
    std::vector<Route*>::const_iterator find_slot(const util::Ipv4Prefix& prefix) const;
    void note_added(int length) noexcept;
    void note_removed(int length) noexcept;

    /// Interned storage: a deque never moves elements, and removed nodes
    /// go to a free list rather than back to the allocator, so a Route*
    /// stays dereferenceable for the table's lifetime no matter what is
    /// installed or removed after it.
    std::deque<Route> arena_;
    std::vector<Route*> free_nodes_;
    /// Sorted by (descending prefix length, ascending prefix address):
    /// binary-searchable, and still longest-prefix-first for first-match
    /// iteration and the routes() snapshot.
    std::vector<Route*> ordered_;
    /// Routes per prefix length, plus a 33-bit occupancy mask (bit = a
    /// length with at least one route) so lookup() probes only lengths
    /// that exist — typically 2–3 even in a population-scale FIB.
    std::array<std::uint32_t, 33> len_count_{};
    std::uint64_t len_mask_ = 0;
    std::uint64_t generation_ = 1;

    /// Default flat threshold: comfortably above every host and toy-test
    /// table (which keep the allocation-free binary search) and far below
    /// a population-scale gateway FIB (~1.5k routes in the two-tier
    /// internet), where the O(1) probes pay for the rebuild many times
    /// over between route changes.
    static constexpr std::size_t kFlatThresholdDefault = 64;
    std::size_t flat_threshold_ = kFlatThresholdDefault;
    /// Soft state: rebuilt inside const lookup() when stale (single-writer
    /// per shard, like every other per-node structure). Generation 0 means
    /// "never built" — real generations start at 1.
    mutable FibFlat fib_;
    mutable std::uint64_t fib_generation_ = 0;
};

}  // namespace catenet::ip
