#include "workload.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

std::unique_ptr<Workload> make_workload(const std::string& name, const Params& params) {
    if (name == "soak_forward") return make_soak_forward(params);
    if (name == "tcp_bulk") return make_tcp_bulk(params);
    if (name == "rpc_churn") return make_rpc_churn(params);
    return nullptr;
}

TimedPhase::TimedPhase(catenet::core::Internetwork& net)
    : net_(net),
      counters_(registry_totals(net.metrics())),
      links_(take_links(net)),
      events_(net.sim().events_processed()),
      sim_ns_(net.now().nanos()) {}

void TimedPhase::note_pending() {
    pending_max_ = std::max<std::uint64_t>(pending_max_, net_.sim().pending_events());
}

void TimedPhase::finish(LayerSample& out) {
    out.counters = counter_delta(registry_totals(net_.metrics()), counters_);
    out.sim_events = net_.sim().events_processed() - events_;
    out.pending_max = pending_max_;
    const LinkSnapshot links = take_links(net_);
    out.link_pkts_sent = links.pkts_sent - links_.pkts_sent;
    out.link_send_failures = links.send_failures - links_.send_failures;
    out.link_lost = links.lost - links_.lost;
    out.link_busy_share = busiest_share(links_, links, net_.now().nanos() - sim_ns_);
}

double time_lookups(const catenet::ip::RoutingTable& table,
                    const std::vector<catenet::util::Ipv4Address>& dsts,
                    Tracer& tracer) {
    // About a million probes: long enough to read a steady rate, short
    // enough to stay a small share of a traced instance. The first pass is
    // untimed and absorbs any lazy table build.
    constexpr std::uint64_t kTarget = std::uint64_t{1} << 20;
    if (dsts.empty()) return 0.0;
    std::uintptr_t sink = 0;
    for (const auto dst : dsts) sink += reinterpret_cast<std::uintptr_t>(table.lookup(dst).get());
    const std::uint64_t reps = std::max<std::uint64_t>(1, kTarget / dsts.size());
    const auto t0 = Clock::now();
    {
        auto span = tracer.span("ip.lookup");
        for (std::uint64_t r = 0; r < reps; ++r) {
            for (const auto dst : dsts) {
                sink += reinterpret_cast<std::uintptr_t>(table.lookup(dst).get());
            }
        }
    }
    const double secs = seconds_between(t0, Clock::now());
    // Keeps the loop observable so the compiler cannot drop it.
    if (sink == 1) std::fputs("", stderr);
    return secs * 1e9 / static_cast<double>(reps * dsts.size());
}

}  // namespace perfbench
