// What the benchmark reads from the library after (and around) a run:
// counter totals by name, link statistics, heap and resident size. Every
// reading goes through a public accessor; nothing here reaches into the
// library's internals.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/internetwork.h"
#include "telemetry/counters.h"
#include "telemetry/registry.h"

namespace perfbench {

/// Counter slots keyed by their dotted name. Built by iterating
/// telemetry::counter_name over every slot, never by enum member, so a
/// counter the library deletes simply drops out of the map.
using CounterMap = std::map<std::string, std::uint64_t>;

CounterMap read_counters(const catenet::telemetry::CounterBlock& block);

/// Every registered node's counters, merged.
CounterMap registry_totals(const catenet::telemetry::Registry& registry);

/// after - before, slot by slot (names present in `after`).
CounterMap counter_delta(const CounterMap& after, const CounterMap& before);

std::optional<std::uint64_t> counter(const CounterMap& counters, std::string_view name);

/// Sum of every slot whose name starts with `prefix`.
std::uint64_t counter_sum(const CounterMap& counters, std::string_view prefix);

/// Link-layer statistics over every interface of every materialized node
/// (point-to-point ports, LAN ports and leaf-LAN stubs), plus channel loss
/// and queue drops of the registered point-to-point links.
struct LinkSnapshot {
    std::uint64_t pkts_sent = 0;
    std::uint64_t send_failures = 0;
    std::uint64_t lost = 0;                 ///< channel loss + egress-queue drops
    std::vector<std::uint64_t> busy_ns;     ///< per interface, in node order
};

LinkSnapshot take_links(catenet::core::Internetwork& net);

/// The busiest interface's transmit time between two snapshots, as a share
/// of the simulated time that passed.
double busiest_share(const LinkSnapshot& before, const LinkSnapshot& after,
                     std::int64_t sim_elapsed_ns);

/// Heap bytes in use (glibc mallinfo2), 0 where unavailable.
std::size_t heap_bytes();

/// This process's peak resident set, MiB.
double peak_rss_mb();

/// FNV-1a, fed field by field: the determinism signature.
class Fnv {
public:
    void bytes(const void* data, std::size_t n);
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    void str(std::string_view s) {
        bytes(s.data(), s.size());
        u64(s.size());
    }
    void counters(const CounterMap& m) {
        for (const auto& [name, value] : m) {
            str(name);
            u64(value);
        }
    }
    std::uint64_t value() const noexcept { return h_; }

private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/// Linear interpolation between order statistics; p in [0, 100]. The
/// benchmark's own copy rather than util::Percentiles, so that its
/// arithmetic stays fixed when the library's changes.
double percentile(std::vector<double> samples, double p);

}  // namespace perfbench
