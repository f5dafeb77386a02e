// soak_forward: the ROADMAP's system number. The generated two-tier
// internet of 103,424 nodes (1024 transit gateways, 512 stub LANs of 200
// compact hosts) carries leaf-to-leaf raw-IP datagram trains across the
// mesh. A step is one wave: an eighth of the LANs (every eighth one, in
// rotation) each send a train of 16 from one host to a host on another LAN,
// then the engine drains to idle. No TCP runs; the time goes to the event
// engine, the link burst chain and IP forwarding (route cache, flat FIB),
// with a heavy topology set-up. Waves are an eighth of bench_scale's so
// that an instance holds enough of them for step-time percentiles and a
// run holds enough instances for a steady best-of-N.
//
// The topology is fixed (the shape bench_scale measures, seed 7); the run
// seed picks the traffic: for every train, the source host and the
// destination LAN and host.
#include <random>

#include "core/internetwork.h"
#include "core/topology_gen.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace catenet;

constexpr std::uint32_t kGateways = 1024;
constexpr std::uint32_t kLans = 512;
constexpr std::uint32_t kHosts = 200;
constexpr std::uint32_t kTrain = 16;
constexpr std::uint64_t kTopologySeed = 7;
constexpr std::uint8_t kProtocol = 253;  // RFC 3692 experimental
constexpr std::size_t kPayloadBytes = 8;
constexpr std::uint32_t kWaveStride = 8;  // a wave: LANs l with l % 8 == wave % 8
constexpr std::uint32_t kTrainsPerWave = kLans / kWaveStride;
constexpr std::uint32_t kDefaultWaves = 128;

struct Send {
    std::uint32_t src_lan;
    std::uint32_t src_host;
    std::uint32_t dst_lan;
    std::uint32_t dst_host;
};

class SoakForward final : public Workload {
public:
    explicit SoakForward(const Params& params)
        : waves_(params.steps != 0 ? params.steps : kDefaultWaves), faults_(params.faults) {
        std::mt19937_64 rng(params.seed);
        plan_.resize(std::size_t{waves_} * kTrainsPerWave);
        for (std::uint32_t w = 0; w < waves_; ++w) {
            for (std::uint32_t j = 0; j < kTrainsPerWave; ++j) {
                const std::uint32_t l = w % kWaveStride + j * kWaveStride;
                Send& s = plan_[std::size_t{w} * kTrainsPerWave + j];
                s.src_lan = l;
                s.src_host = static_cast<std::uint32_t>(rng() % kHosts);
                s.dst_lan = static_cast<std::uint32_t>((l + 1 + rng() % (kLans - 1)) % kLans);
                s.dst_host = static_cast<std::uint32_t>(rng() % kHosts);
            }
        }
    }

    InstanceResult run_instance(Tracer& tracer) override;

private:
    std::uint32_t waves_;
    Faults faults_;
    std::vector<Send> plan_;
};

InstanceResult SoakForward::run_instance(Tracer& tracer) {
    InstanceResult r;
    r.traced = tracer.enabled();

    core::TwoTierParams params;
    params.gateways = kGateways;
    params.lans = kLans;
    params.hosts_per_lan = kHosts;
    params.seed = kTopologySeed;
    // A fast, deep-queued core (bench_scale's): the soak measures the
    // forwarding machinery, not a 10 Mb/s bottleneck's queueing, and no
    // datagram is lost.
    params.trunk.bits_per_second = 1'000'000'000;
    params.trunk.propagation_delay = sim::microseconds(50);
    params.trunk.queue_capacity_packets = 256;

    // --- set-up ----------------------------------------------------------
    const auto t_setup = Clock::now();
    std::unique_ptr<core::Internetwork> net;
    std::vector<core::Gateway*> gateways;
    std::vector<std::uint32_t> leaf_lans;
    std::size_t heap_before = 0;
    std::size_t heap_after = 0;
    {
        auto root = tracer.span("app.setup");
        {
            auto span = tracer.span("core.build");
            net = std::make_unique<core::Internetwork>(kTopologySeed);
            const core::TwoTierPlan plan = core::plan_two_tier(params);
            gateways.reserve(kGateways);
            for (std::uint32_t i = 0; i < kGateways; ++i) {
                gateways.push_back(&net->add_gateway("gw" + std::to_string(i)));
            }
            for (const auto& [a, b] : plan.trunks) {
                net->connect(*gateways[a], *gateways[b], params.trunk);
            }
            // The leaf population, bracketed by heap snapshots: marginal
            // bytes per host (the node arrays' reservation is per-host cost).
            heap_before = heap_bytes();
            net->topology().reserve_nodes(kGateways + std::size_t{kLans} * kHosts,
                                          std::size_t{kLans} * kHosts);
            leaf_lans.reserve(kLans);
            for (std::uint32_t l = 0; l < kLans; ++l) {
                leaf_lans.push_back(net->add_leaf_lan(*gateways[plan.lan_home[l]], kHosts,
                                                      "leaf" + std::to_string(l)));
            }
            heap_after = heap_bytes();
        }
        {
            auto span = tracer.span("core.routes");
            net->use_static_routes();
        }
    }
    r.setup_s = seconds_between(t_setup, Clock::now());
    r.bytes_per_host = heap_after > heap_before
                           ? static_cast<double>(heap_after - heap_before) /
                                 (static_cast<double>(kLans) * kHosts)
                           : 0.0;

    core::TopologyStore& topo = net->topology();
    auto host_id = [&](std::uint32_t lan, std::uint32_t host) {
        return topo.leaf_host(leaf_lans[lan], host);
    };

    // --- timed steps -------------------------------------------------------
    const std::uint8_t payload[kPayloadBytes] = {0xC5, 0, 0, 0, 0, 0, 0, 0};
    std::uint64_t injected = 0;
    const std::uint64_t delivered_before = topo.leaf_delivered_total();
    TimedPhase phase(*net);
    r.step_s.reserve(waves_);
    for (std::uint32_t w = 0; w < waves_; ++w) {
        tracer.set_step(w);
        const auto t0 = Clock::now();
        {
            auto step = tracer.span("app.step");
            for (std::uint32_t j = 0; j < kTrainsPerWave; ++j) {
                const Send& s = plan_[std::size_t{w} * kTrainsPerWave + j];
                const util::Ipv4Address dst = topo.address(host_id(s.dst_lan, s.dst_host));
                auto span = tracer.span("core.inject");
                injected += topo.leaf_inject_train(host_id(s.src_lan, s.src_host), dst,
                                                   kProtocol, payload, kTrain, 255);
            }
            phase.note_pending();
            auto span = tracer.span("sim.run");
            net->run_for(sim::seconds(2));  // every wave drains completely
        }
        r.step_s.push_back(seconds_between(t0, Clock::now()));
    }
    tracer.set_step(kNoStep);
    phase.finish(r.layers);

    const std::uint64_t delivered = topo.leaf_delivered_total() - delivered_before;
    r.work.delivered = delivered;
    r.work.forwards = counter(r.layers.counters, "ip.fwd").value_or(0);
    r.work.app_bytes = delivered * kPayloadBytes;
    r.work.txns = delivered / kTrain;  // a transaction here is one train

    if (r.traced) {
        std::vector<util::Ipv4Address> dsts;
        dsts.reserve(kLans);
        for (std::size_t i = 0; i < std::min<std::size_t>(plan_.size(), kLans); ++i) {
            dsts.push_back(topo.address(host_id(plan_[i].dst_lan, plan_[i].dst_host)));
        }
        r.layers.lpm_ns =
            time_lookups(gateways[kGateways / 2]->ip().routing_table(), dsts, tracer);
    }

    // --- checks ------------------------------------------------------------
    SoakObservation obs;
    obs.planned = plan_.size() * kTrain;
    obs.injected = injected;
    const std::size_t leaves = std::size_t{kLans} * kHosts;
    obs.expected.assign(leaves, 0);
    obs.delivered.assign(leaves, 0);
    for (const Send& s : plan_) obs.expected[std::size_t{s.dst_lan} * kHosts + s.dst_host] += kTrain;
    for (std::uint32_t l = 0; l < kLans; ++l) {
        for (std::uint32_t h = 0; h < kHosts; ++h) {
            obs.delivered[std::size_t{l} * kHosts + h] = topo.leaf_delivered(host_id(l, h));
        }
    }
    if (faults_.drop_datagram) {
        const Send& s = plan_.front();
        --obs.delivered[std::size_t{s.dst_lan} * kHosts + s.dst_host];
    }
    for (const core::Gateway* gw : gateways) {
        obs.gateways.emplace_back(gw->name(), read_counters(gw->ip().counters()));
    }
    Verdict v = check_soak(obs);
    r.checks = std::move(v.checks);
    r.attempted = v.attempted;
    r.failed = v.failed;

    // --- determinism signature --------------------------------------------
    Fnv sig;
    sig.counters(registry_totals(net->metrics()));
    sig.u64(net->sim().events_processed());
    sig.u64(topo.leaf_delivered_total());
    sig.u64(topo.signature());
    r.signature = sig.value();
    return r;
}

}  // namespace

std::unique_ptr<Workload> make_soak_forward(const Params& params) {
    return std::make_unique<SoakForward>(params);
}

}  // namespace perfbench
