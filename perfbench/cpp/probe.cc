#include "probe.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace perfbench {

using catenet::telemetry::Counter;
using catenet::telemetry::kCounterCount;

CounterMap read_counters(const catenet::telemetry::CounterBlock& block) {
    CounterMap out;
    for (std::size_t i = 0; i < kCounterCount; ++i) {
        out[catenet::telemetry::counter_name(static_cast<Counter>(i))] = block.slots[i];
    }
    return out;
}

CounterMap registry_totals(const catenet::telemetry::Registry& registry) {
    return read_counters(registry.totals());
}

CounterMap counter_delta(const CounterMap& after, const CounterMap& before) {
    CounterMap out;
    for (const auto& [name, value] : after) {
        const auto it = before.find(name);
        out[name] = value - (it != before.end() ? it->second : 0);
    }
    return out;
}

std::optional<std::uint64_t> counter(const CounterMap& counters, std::string_view name) {
    const auto it = counters.find(std::string(name));
    if (it == counters.end()) return std::nullopt;
    return it->second;
}

std::uint64_t counter_sum(const CounterMap& counters, std::string_view prefix) {
    std::uint64_t total = 0;
    for (const auto& [name, value] : counters) {
        if (name.starts_with(prefix)) total += value;
    }
    return total;
}

LinkSnapshot take_links(catenet::core::Internetwork& net) {
    LinkSnapshot s;
    for (catenet::core::Node* node : net.nodes()) {
        auto& ip = node->ip();
        for (std::size_t i = 0; i < ip.interface_count(); ++i) {
            const catenet::link::NetIfStats& st = ip.interface(i).stats();
            s.pkts_sent += st.packets_sent;
            s.send_failures += st.send_failures;
            s.busy_ns.push_back(st.busy_ns);
        }
    }
    for (const catenet::telemetry::LinkEntry& link : net.metrics().links()) {
        if (link.chan_a_to_b != nullptr) s.lost += link.chan_a_to_b->packets_lost;
        if (link.chan_b_to_a != nullptr) s.lost += link.chan_b_to_a->packets_lost;
        for (const auto* queue : {link.queue_a ? link.queue_a() : nullptr,
                                  link.queue_b ? link.queue_b() : nullptr}) {
            if (queue != nullptr) s.lost += queue->dropped;
        }
    }
    return s;
}

double busiest_share(const LinkSnapshot& before, const LinkSnapshot& after,
                     std::int64_t sim_elapsed_ns) {
    if (sim_elapsed_ns <= 0) return 0.0;
    std::uint64_t busiest = 0;
    for (std::size_t i = 0; i < after.busy_ns.size(); ++i) {
        const std::uint64_t was = i < before.busy_ns.size() ? before.busy_ns[i] : 0;
        busiest = std::max(busiest, after.busy_ns[i] - was);
    }
    return static_cast<double>(busiest) / static_cast<double>(sim_elapsed_ns);
}

std::size_t heap_bytes() {
#if defined(__GLIBC__)
    const struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
#else
    return 0;
#endif
}

double peak_rss_mb() {
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void Fnv::bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= p[i];
        h_ *= 1099511628211ull;
    }
}

double percentile(std::vector<double> samples, double p) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

}  // namespace perfbench
