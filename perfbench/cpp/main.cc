// perfbench: runs one workload for a given host time and writes a JSON
// report of its end-to-end metrics (untraced instances) or per-layer
// metrics (traced instances), its correctness checks and its determinism
// signature. run.py builds this binary and drives it.
//
//   perfbench --workload soak_forward|tcp_bulk|rpc_churn --seed N
//             --seconds S --trace 0|1 [--out FILE] [--spans FILE]
//
// A run repeats complete instances of the workload until --seconds of host
// time have passed and at least three instances have run. Every instance of
// a seed is the same simulation, so step k does identical work in each of
// them; the rates and step-time percentiles use, for every step, the
// fastest of its repetitions in the run (the repository's best-of-N method,
// applied per step). That filters out interference from other tenants of a
// shared machine, which otherwise moves a run by tens of percent. Set-up
// time is the median over the instances.
//
// With --trace 1 instances alternate untraced and traced: the traced ones
// give the per-layer numbers, and the difference between the two kinds is
// the tracing overhead. Exit status: 0 when every check passed, 3 when a
// check failed (the report is still written), 2 on bad usage.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workload.h"

namespace {

using namespace perfbench;

struct Options {
    std::string workload;
    Params params;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
    std::string spans;
};

/// Enough for a median set-up time and, traced, both kinds of instance.
constexpr std::uint32_t kMinInstances = 3;

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload soak_forward|tcp_bulk|rpc_churn --seed N\n"
                 "                 --seconds S --trace 0|1 [--out FILE] [--spans FILE]\n",
                 why);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
        const char* v = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            o.workload = v;
        } else if (flag == "--seed") {
            o.params.seed = std::strtoull(v, &end, 10);
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(v, &end);
        } else if (flag == "--trace") {
            o.trace = std::strcmp(v, "0") != 0;
        } else if (flag == "--out") {
            o.out = v;
        } else if (flag == "--spans") {
            o.spans = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && *end != '\0') usage(("bad number for " + flag).c_str());
    }
    if (o.workload.empty()) usage("--workload is required");
    if (o.seconds <= 0) usage("--seconds must be positive");
    return o;
}

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
};

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// The end-to-end metrics of a group of instances of one seed. Their
/// signatures match, so each did the same work, step by step.
std::vector<Metric> end_to_end(const std::vector<const InstanceResult*>& group) {
    std::vector<double> setups;
    std::vector<double> bytes_per_host;
    std::vector<double> steps_ms = group.front()->step_s;  // per-step best, ms
    for (const InstanceResult* r : group) {
        setups.push_back(r->setup_s);
        bytes_per_host.push_back(r->bytes_per_host);
        for (std::size_t k = 0; k < steps_ms.size() && k < r->step_s.size(); ++k) {
            steps_ms[k] = std::min(steps_ms[k], r->step_s[k]);
        }
    }
    double timed = 0.0;
    for (double& s : steps_ms) {
        timed += s;
        s *= 1e3;
    }
    const Work& work = group.front()->work;
    const std::size_t n = steps_ms.size();
    auto rate = [&](double amount) { return timed > 0 ? amount / timed : 0.0; };
    std::vector<Metric> m = {
        {"setup_s", median(setups), "s", setups.size()},
        {"pkts_per_s", rate(static_cast<double>(work.delivered)), "1/s", n},
        {"hops_per_s", rate(static_cast<double>(work.forwards)), "1/s", n},
        {"goodput_MBps", rate(static_cast<double>(work.app_bytes) / 1e6), "MB/s", n},
        {"txn_per_s", rate(static_cast<double>(work.txns)), "1/s", n},
        {"step_ms_p50", percentile(steps_ms, 50.0), "ms", n},
    };
    // p90 only when at least ten samples lie beyond it.
    const double p90 = percentile(steps_ms, 90.0);
    const auto beyond = static_cast<std::size_t>(
        std::count_if(steps_ms.begin(), steps_ms.end(), [&](double s) { return s > p90; }));
    if (beyond >= 10) m.push_back({"step_ms_p90", p90, "ms", n});
    m.push_back({"bytes_per_host", median(bytes_per_host), "B", bytes_per_host.size()});
    return m;
}

/// The per-layer metrics of the traced instances, per instance.
std::vector<Metric> per_layer(const std::vector<const InstanceResult*>& traced,
                              const std::vector<std::uint32_t>& ids, const Tracer& tracer) {
    const auto k = static_cast<double>(traced.size());
    std::map<std::string, double> spans;
    std::map<std::string, double> self;
    double lpm_ns = 0.0;
    std::uint64_t events = 0;
    std::uint64_t pending_max = 0;
    double busy_share = 0.0;
    std::uint64_t pkts_sent = 0, send_failures = 0, lost = 0;
    CounterMap counters;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        const InstanceResult& r = *traced[i];
        for (const char* name : {"core.build", "core.routes", "tcp.connect"}) {
            spans[name] += tracer.total_seconds(name, ids[i], false);
        }
        for (const char* name : {"core.inject", "sim.run", "tcp.send"}) {
            spans[name] += tracer.total_seconds(name, ids[i], true);
        }
        for (const auto& [layer, s] : tracer.self_seconds(ids[i])) self[layer] += s;
        lpm_ns += r.layers.lpm_ns;
        events += r.layers.sim_events;
        pending_max = std::max(pending_max, r.layers.pending_max);
        busy_share += r.layers.link_busy_share;
        pkts_sent += r.layers.link_pkts_sent;
        send_failures += r.layers.link_send_failures;
        lost += r.layers.link_lost;
        for (const auto& [name, v] : r.layers.counters) counters[name] += v;
    }
    auto per = [&](double total) { return k > 0 ? total / k : 0.0; };
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    auto c = [&](const char* name) { return static_cast<double>(counter(counters, name).value_or(0)); };
    const std::size_t n = traced.size();
    const double run_s = spans["sim.run"];
    std::vector<Metric> m = {
        {"core.build_s", per(spans["core.build"]), "s", n},
        {"core.routes_s", per(spans["core.routes"]), "s", n},
        {"core.inject_s", per(spans["core.inject"]), "s", n},
        {"sim.run_s", per(run_s), "s", n},
        {"sim.events", per(static_cast<double>(events)), "count", n},
        {"sim.ns_per_event", ratio(run_s * 1e9, static_cast<double>(events)), "ns", n},
        {"sim.pending_max", static_cast<double>(pending_max), "count", n},
        {"link.pkts_sent", per(static_cast<double>(pkts_sent)), "count", n},
        {"link.busy_share", per(busy_share), "ratio", n},
        {"link.send_failures", per(static_cast<double>(send_failures)), "count", n},
        {"link.lost", per(static_cast<double>(lost)), "count", n},
    };
    // Counter-derived metrics exist only while their counters do.
    auto has = [&](const char* name) { return counter(counters, name).has_value(); };
    if (has("ip.fwd")) {
        m.push_back({"ip.fwd", per(c("ip.fwd")), "count", n});
        m.push_back({"ip.ns_per_hop", ratio(run_s * 1e9, c("ip.fwd")), "ns", n});
    }
    if (has("ip.deliver")) m.push_back({"ip.deliver", per(c("ip.deliver")), "count", n});
    m.push_back({"ip.drops", per(static_cast<double>(counter_sum(counters, "ip.drop."))), "count", n});
    if (has("ip.route_cache.hit") && has("ip.route_cache.miss")) {
        m.push_back({"ip.route_cache.hit_ratio",
                     ratio(c("ip.route_cache.hit"),
                           c("ip.route_cache.hit") + c("ip.route_cache.miss")),
                     "ratio", n});
    }
    m.push_back({"ip.lpm_ns", per(lpm_ns), "ns", n});
    m.push_back({"tcp.send_s", per(spans["tcp.send"]), "s", n});
    m.push_back({"tcp.connect_s", per(spans["tcp.connect"]), "s", n});
    if (has("tcp.segs_out")) m.push_back({"tcp.segs_out", per(c("tcp.segs_out")), "count", n});
    if (has("tcp.retrans_segs") && has("tcp.segs_out")) {
        m.push_back({"tcp.retrans_ratio", ratio(c("tcp.retrans_segs"), c("tcp.segs_out")),
                     "ratio", n});
    }
    if (has("tcp.pred.acks") && has("tcp.pred.data") && has("tcp.segs_in")) {
        m.push_back({"tcp.pred_ratio",
                     ratio(c("tcp.pred.acks") + c("tcp.pred.data"), c("tcp.segs_in")), "ratio",
                     n});
    }
    if (has("tcp.gso_segs") && has("tcp.gso_builds")) {
        m.push_back({"tcp.gso_segs_per_build", ratio(c("tcp.gso_segs"), c("tcp.gso_builds")),
                     "ratio", n});
    }
    if (has("tcp.gro_segs") && has("tcp.gro_runs")) {
        m.push_back({"tcp.gro_segs_per_run", ratio(c("tcp.gro_segs"), c("tcp.gro_runs")),
                     "ratio", n});
    }
    if (has("tcp.conns_opened")) {
        m.push_back({"tcp.conns_opened", per(c("tcp.conns_opened")), "count", n});
    }
    for (const char* layer : {"app", "core", "sim", "tcp"}) {
        m.push_back({std::string("self.") + layer + "_s", per(self[layer]), "s", n});
    }
    return m;
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char ch : s) {
        if (ch == '"' || ch == '\\') out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
    }
    return out;
}

void write_metrics(std::FILE* f, const char* key, const std::vector<Metric>& metrics) {
    std::fprintf(f, "  \"%s\": {", key);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        std::fprintf(f, "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"samples\": %zu}",
                     i == 0 ? "" : ",", m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    }
    std::fprintf(f, "\n  }");
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);
    for (const char* ablation : {"CATENET_NO_FIBFLAT", "CATENET_NO_OFFLOAD"}) {
        if (std::getenv(ablation) != nullptr) {
            std::fprintf(stderr,
                         "perfbench: %s is set; the benchmark measures the shipped "
                         "configuration only\n",
                         ablation);
            return 2;
        }
    }
    std::unique_ptr<Workload> workload = make_workload(opt.workload, opt.params);
    if (workload == nullptr) usage(("unknown workload " + opt.workload).c_str());

    Tracer tracer;
    std::vector<InstanceResult> results;
    double peak_rss = 0.0;
    const auto start = Clock::now();
    for (std::uint32_t i = 0;; ++i) {
        tracer.set_enabled(opt.trace && i % 2 == 1);
        tracer.set_instance(i);
        results.push_back(workload->run_instance(tracer));
        // The first instance's peak: later instances reuse memory the
        // allocator kept, in ways that vary from run to run.
        if (i == 0) peak_rss = peak_rss_mb();
        if (i + 1 >= kMinInstances && seconds_between(start, Clock::now()) >= opt.seconds) {
            break;
        }
    }

    std::vector<const InstanceResult*> untraced;
    std::vector<const InstanceResult*> traced;
    std::vector<std::uint32_t> traced_ids;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].traced) {
            traced.push_back(&results[i]);
            traced_ids.push_back(static_cast<std::uint32_t>(i));
        } else {
            untraced.push_back(&results[i]);
        }
    }

    // Correctness: every instance's checks, and one signature for all.
    std::vector<Check> checks;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const InstanceResult& r : results) {
        attempted += r.attempted;
        failed += r.failed;
        for (const Check& c : r.checks) {
            auto it = std::find_if(checks.begin(), checks.end(),
                                   [&](const Check& k) { return k.name == c.name; });
            if (it == checks.end()) {
                checks.push_back(c);
            } else if (it->ok && !c.ok) {
                *it = c;
            }
        }
    }
    const std::uint64_t signature = results.front().signature;
    const bool deterministic =
        std::all_of(results.begin(), results.end(),
                    [&](const InstanceResult& r) { return r.signature == signature; });
    checks.push_back(Check{"same_signature_every_instance", deterministic,
                           deterministic ? "" : "instances of one seed diverged"});
    const bool correct = std::all_of(checks.begin(), checks.end(),
                                     [](const Check& c) { return c.ok; });

    std::vector<Metric> e2e = end_to_end(untraced);
    e2e.push_back({"peak_rss_mb", peak_rss, "MiB", 1});
    std::vector<Metric> layers;
    if (!traced.empty()) {
        layers = per_layer(traced, traced_ids, tracer);
        // Tracing overhead: traced minus untraced, per end-to-end metric
        // both groups can report.
        const std::vector<Metric> with = end_to_end(traced);
        for (const Metric& t : with) {
            for (const Metric& u : e2e) {
                if (u.name == t.name && t.name != "step_ms_p90") {
                    layers.push_back({"overhead." + t.name, t.value - u.value, t.unit,
                                      t.samples});
                }
            }
        }
    }

    std::FILE* f = opt.out.empty() ? stdout : std::fopen(opt.out.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", opt.out.c_str());
        return 2;
    }
    std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n", opt.workload.c_str(),
                 static_cast<unsigned long long>(opt.params.seed));
    std::fprintf(f, "  \"instances\": %zu,\n  \"traced_instances\": %zu,\n", results.size(),
                 traced.size());
    std::fprintf(f, "  \"steps_per_instance\": %zu,\n", results.front().step_s.size());
    std::fprintf(f, "  \"correct\": %s,\n  \"attempted\": %llu,\n  \"failed\": %llu,\n",
                 correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed));
    std::fprintf(f, "  \"signature\": \"%016llx\",\n",
                 static_cast<unsigned long long>(signature));
    std::fprintf(f, "  \"checks\": [");
    for (std::size_t i = 0; i < checks.size(); ++i) {
        std::fprintf(f, "%s\n    {\"name\": \"%s\", \"ok\": %s, \"detail\": \"%s\"}",
                     i == 0 ? "" : ",", checks[i].name.c_str(), checks[i].ok ? "true" : "false",
                     json_escape(checks[i].detail).c_str());
    }
    std::fprintf(f, "\n  ],\n  \"notes\": {");
    std::size_t note_index = 0;
    for (const auto& [k, v] : results.front().notes) {
        std::fprintf(f, "%s\n    \"%s\": \"%s\"", note_index++ == 0 ? "" : ",", k.c_str(),
                     json_escape(v).c_str());
    }
    std::fprintf(f, "\n  },\n");
    write_metrics(f, "end_to_end", e2e);
    std::fprintf(f, ",\n");
    write_metrics(f, "per_layer", layers);
    std::fprintf(f, "\n}\n");
    if (f != stdout) std::fclose(f);

    // The spans of the first traced instance: one complete tree (all of
    // them would run to tens of megabytes on the short-step workloads).
    if (!opt.spans.empty() && !traced.empty()) {
        if (std::FILE* s = std::fopen(opt.spans.c_str(), "w")) {
            tracer.write_jsonl(s, traced_ids.front());
            std::fclose(s);
        } else {
            std::fprintf(stderr, "perfbench: cannot write %s\n", opt.spans.c_str());
            return 2;
        }
    }
    return correct ? 0 : 3;
}
