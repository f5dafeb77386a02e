// Open-addressed demultiplexing table for established connections, keyed
// on the 4-tuple packed into one 64-bit word (the local address is implied
// — a TcpStack owns exactly one host). The seed used std::map<ConnKey,...>,
// a red-black tree walk plus a node allocation per connection; here lookup
// is a Fibonacci hash and a short linear probe over one flat array — the
// per-segment demux cost the receive fast path sits behind.
//
// Deletion uses backward-shift (Robin Hood style without the rich
// metadata): instead of tombstones, entries after the hole slide back into
// it when doing so shortens (or keeps) their probe distance. Lookups stay
// tombstone-free forever, which matters for a table that churns a
// connection per request in the churn benchmark.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace catenet::tcp {

template <typename Value>
class ConnTable {
public:
    using Key = std::uint64_t;

    ConnTable() : slots_(kInitialSlots) {}

    std::size_t size() const noexcept { return size_; }

    /// Pointer to the mapped value, or nullptr. Stable only until the next
    /// insert/erase.
    Value* find(Key key) noexcept {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = index_of(key);; i = (i + 1) & mask) {
            Slot& s = slots_[i];
            if (!s.used) return nullptr;
            if (s.key == key) return &s.value;
        }
    }

    /// Inserts or overwrites.
    void insert(Key key, Value value) {
        if ((size_ + 1) * 4 > slots_.size() * 3) grow();
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = index_of(key);; i = (i + 1) & mask) {
            Slot& s = slots_[i];
            if (!s.used) {
                s.used = true;
                s.key = key;
                s.value = std::move(value);
                ++size_;
                return;
            }
            if (s.key == key) {
                s.value = std::move(value);
                return;
            }
        }
    }

    /// Removes `key` if present; returns whether it was.
    bool erase(Key key) noexcept {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = index_of(key);
        for (;; i = (i + 1) & mask) {
            Slot& s = slots_[i];
            if (!s.used) return false;
            if (s.key == key) break;
        }
        // Backward-shift: walk the probe chain after the hole; an entry at
        // j (ideal slot k) may fill hole h exactly when h lies within its
        // probe path, i.e. (h - k) mod size <= (j - k) mod size.
        std::size_t hole = i;
        for (std::size_t j = (hole + 1) & mask;; j = (j + 1) & mask) {
            Slot& cand = slots_[j];
            if (!cand.used) break;
            const std::size_t ideal = index_of(cand.key);
            if (((hole - ideal) & mask) <= ((j - ideal) & mask)) {
                slots_[hole].key = cand.key;
                slots_[hole].value = std::move(cand.value);
                hole = j;
            }
        }
        slots_[hole].used = false;
        slots_[hole].value = Value{};
        --size_;
        return true;
    }

    /// Visits every (key, value) pair; no insert/erase during the walk.
    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (const Slot& s : slots_) {
            if (s.used) fn(s.key, s.value);
        }
    }

private:
    static constexpr std::size_t kInitialSlots = 16;  // power of two

    struct Slot {
        Key key = 0;
        Value value{};
        bool used = false;
    };

    std::size_t index_of(Key key) const noexcept {
        // Fibonacci hash: the 4-tuple's fields land in distinct byte lanes,
        // so one multiply diffuses them across the high bits.
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> 32) &
               (slots_.size() - 1);
    }

    void grow() {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.size() * 2, Slot{});
        size_ = 0;
        for (Slot& s : old) {
            if (s.used) insert(s.key, std::move(s.value));
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

/// Packs (remote address, remote port, local port) into a ConnTable key.
inline std::uint64_t make_conn_key(std::uint32_t remote_addr, std::uint16_t remote_port,
                                   std::uint16_t local_port) noexcept {
    return (std::uint64_t{remote_addr} << 32) | (std::uint64_t{remote_port} << 16) |
           std::uint64_t{local_port};
}

/// Extracts the local-port lane of a packed key (ephemeral-port allocation).
inline std::uint16_t conn_key_local_port(std::uint64_t key) noexcept {
    return static_cast<std::uint16_t>(key & 0xffff);
}

}  // namespace catenet::tcp
