// The benchmark's workloads. Each drives the library from outside, through
// its public API, on the sequential engine. One instance is a complete,
// self-contained run: build the topology (timed as set-up), execute a fixed
// number of steps (each timed), drain, check. Instances of one workload and
// seed are identical simulations, so every instance must produce the same
// determinism signature; a run repeats instances until it has measured for
// the requested time.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "probe.h"
#include "trace.h"

namespace perfbench {

/// Faults planted on purpose, so the benchmark's tests can show the
/// checker rejects them. Each is applied where the benchmark observes the
/// program's output, never inside the library.
struct Faults {
    bool drop_datagram = false;  ///< soak_forward: one delivery goes uncounted
    bool corrupt_byte = false;   ///< tcp_bulk: one received byte is flipped
    bool drop_response = false;  ///< rpc_churn: one answer goes unseen
};

struct Params {
    std::uint64_t seed = 1;
    std::uint32_t steps = 0;  ///< steps per instance; 0 = the workload's default (tests shorten it)
    Faults faults;
};

/// End-to-end work done during the timed steps of one instance.
struct Work {
    std::uint64_t delivered = 0;  ///< datagrams that reached their destination host
    std::uint64_t forwards = 0;   ///< gateway forwards
    std::uint64_t app_bytes = 0;  ///< application payload bytes delivered
    std::uint64_t txns = 0;       ///< completed transactions (see each workload)
};

/// Layer readings over the timed steps of one instance.
struct LayerSample {
    CounterMap counters;  ///< delta over the timed steps
    std::uint64_t sim_events = 0;
    std::uint64_t pending_max = 0;  ///< most pending events seen at a step boundary
    std::uint64_t link_pkts_sent = 0;
    std::uint64_t link_send_failures = 0;
    std::uint64_t link_lost = 0;
    double link_busy_share = 0.0;
    double lpm_ns = 0.0;  ///< traced instances only: ns per RoutingTable::lookup
};

struct InstanceResult {
    bool traced = false;
    double setup_s = 0.0;
    std::vector<double> step_s;
    Work work;
    LayerSample layers;
    double bytes_per_host = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Check> checks;
    std::uint64_t signature = 0;
    std::map<std::string, std::string> notes;  ///< deterministic extras for the report
};

class Workload {
public:
    virtual ~Workload() = default;
    /// Runs one complete instance. Spans go to `tracer` when it is enabled.
    virtual InstanceResult run_instance(Tracer& tracer) = 0;
};

std::unique_ptr<Workload> make_soak_forward(const Params& params);
std::unique_ptr<Workload> make_tcp_bulk(const Params& params);
std::unique_ptr<Workload> make_rpc_churn(const Params& params);

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, const Params& params);

/// Timed-phase bookkeeping shared by the workloads: snapshots counters,
/// links and the engine before the first step and after the last.
class TimedPhase {
public:
    explicit TimedPhase(catenet::core::Internetwork& net);
    /// Call at each step boundary.
    void note_pending();
    /// Fills `out` with deltas since construction.
    void finish(LayerSample& out);

private:
    catenet::core::Internetwork& net_;
    CounterMap counters_;
    LinkSnapshot links_;
    std::uint64_t events_ = 0;
    std::int64_t sim_ns_ = 0;
    std::uint64_t pending_max_ = 0;
};

/// ns per RoutingTable::lookup, timed over about a million probes of
/// `dsts` (recorded as an `ip.lookup` span when tracing).
double time_lookups(const catenet::ip::RoutingTable& table,
                    const std::vector<catenet::util::Ipv4Address>& dsts,
                    Tracer& tracer);

}  // namespace perfbench
