// rpc_churn: 256 RpcClients in connection-per-request mode, on 64 hosts
// spread over four client LANs, call one RpcServer. Two LANs reach the core
// over 10 Mb/s wired access links, two over lossy, jittery packet-radio
// links (3% loss). Requests arrive at Poisson times for a fixed simulated
// duration; a step is one 100 ms slice of simulated time. Every transaction
// is connect, request, response and close, so the engine's work is mostly
// timers (RTO, delayed ACK, TIME-WAIT far in the future) and the links carry
// runs of one on the per-packet path; TCP's work is handshakes, teardowns,
// retransmissions and connection-table churn.
//
// The run seed seeds the Internetwork, whose per-host random streams draw
// the arrival times and the radio channels' losses.
#include "app/request_response.h"
#include "core/internetwork.h"
#include "link/presets.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace catenet;

constexpr std::uint32_t kLans = 4;
constexpr std::uint32_t kRadioLans = 2;  // the last kRadioLans LANs
constexpr std::uint32_t kHostsPerLan = 16;
constexpr std::uint32_t kClientsPerHost = 4;
constexpr std::uint16_t kPort = 7;
constexpr std::uint16_t kResponseBytes = 128;
constexpr std::size_t kRequestBytes = 6;  // id + response size, no extra payload
constexpr std::int64_t kSliceMs = 100;
constexpr std::uint32_t kDefaultSlices = 128;
// Wired clients call often; radio clients rarely enough that their 100 kb/s
// links stay lightly loaded and every request is eventually answered.
constexpr std::int64_t kWiredInterarrivalMs = 200;
constexpr std::int64_t kRadioInterarrivalMs = 8000;
// After the last slice: long enough for TIME-WAIT (2 x 30 s) and any
// backed-off retransmission to finish.
constexpr std::int64_t kDrainSeconds = 300;

class RpcChurn final : public Workload {
public:
    explicit RpcChurn(const Params& params)
        : slices_(params.steps != 0 ? params.steps : kDefaultSlices),
          seed_(params.seed),
          faults_(params.faults) {}

    InstanceResult run_instance(Tracer& tracer) override;

private:
    std::uint32_t slices_;
    std::uint64_t seed_;
    Faults faults_;
};

InstanceResult RpcChurn::run_instance(Tracer& tracer) {
    InstanceResult r;
    r.traced = tracer.enabled();

    // Transaction sockets carry a few hundred bytes: small buffers, as a
    // transaction host would configure them.
    tcp::TcpConfig tcp_config;
    tcp_config.send_buffer = 4096;
    tcp_config.recv_buffer = 4096;

    link::LinkParams core_link;
    core_link.bits_per_second = 100'000'000;
    core_link.propagation_delay = sim::microseconds(200);
    core_link.queue_capacity_packets = 1024;
    link::LinkParams wired_access = link::presets::ethernet_hop();
    wired_access.propagation_delay = sim::milliseconds(2);
    wired_access.queue_capacity_packets = 256;
    const link::LinkParams radio_access = link::presets::packet_radio();
    link::LanParams lan_params = link::presets::ethernet_lan();
    lan_params.queue_capacity_packets = 256;

    // Declared first so it is destroyed last: servers and clients hold
    // timers and sockets on its engine.
    std::unique_ptr<core::Internetwork> net;
    std::unique_ptr<app::RpcServer> server;
    std::vector<std::unique_ptr<app::RpcClient>> clients;

    // --- set-up ----------------------------------------------------------
    const auto t_setup = Clock::now();
    core::Host* srv = nullptr;
    core::Gateway* core_gw = nullptr;
    std::vector<util::Ipv4Address> client_addrs;
    std::size_t heap_hosts = 0;
    {
        auto root = tracer.span("app.setup");
        std::vector<core::Host*> hosts;
        {
            auto span = tracer.span("core.build");
            net = std::make_unique<core::Internetwork>(seed_);
            srv = &net->add_host("server");
            core_gw = &net->add_gateway("core");
            net->connect(*srv, *core_gw, core_link);
            for (std::uint32_t l = 0; l < kLans; ++l) {
                const bool radio = l >= kLans - kRadioLans;
                core::Gateway& access = net->add_gateway("access" + std::to_string(l));
                net->connect(*core_gw, access, radio ? radio_access : wired_access);
                const std::size_t lan = net->add_lan(lan_params, "lan" + std::to_string(l));
                net->attach_to_lan(access, lan);
                const std::size_t heap_before = heap_bytes();
                for (std::uint32_t h = 0; h < kHostsPerLan; ++h) {
                    core::Host& host =
                        net->add_host("c" + std::to_string(l) + "." + std::to_string(h));
                    client_addrs.push_back(net->attach_to_lan(host, lan));
                    hosts.push_back(&host);
                }
                const std::size_t heap_after = heap_bytes();
                heap_hosts += heap_after > heap_before ? heap_after - heap_before : 0;
            }
        }
        {
            auto span = tracer.span("core.routes");
            net->use_static_routes();
        }
        auto span = tracer.span("app.clients");
        server = std::make_unique<app::RpcServer>(*srv, kPort, tcp_config);
        for (std::size_t i = 0; i < hosts.size(); ++i) {
            const bool radio = i / kHostsPerLan >= kLans - kRadioLans;
            app::RpcClientConfig cfg;
            cfg.response_bytes = kResponseBytes;
            cfg.mean_interarrival =
                sim::milliseconds(radio ? kRadioInterarrivalMs : kWiredInterarrivalMs);
            cfg.connection_per_request = true;
            cfg.tcp = tcp_config;
            for (std::uint32_t k = 0; k < kClientsPerHost; ++k) {
                clients.push_back(
                    std::make_unique<app::RpcClient>(*hosts[i], srv->address(), kPort, cfg));
            }
        }
    }
    r.setup_s = seconds_between(t_setup, Clock::now());
    r.bytes_per_host =
        static_cast<double>(heap_hosts) / static_cast<double>(kLans * kHostsPerLan);

    auto answered = [&] {
        std::uint64_t n = 0;
        for (const auto& c : clients) n += c->responses_received();
        return n;
    };

    // --- timed steps -------------------------------------------------------
    for (auto& c : clients) c->start();
    TimedPhase phase(*net);
    const std::uint64_t answered_before = answered();
    r.step_s.reserve(slices_);
    for (std::uint32_t s = 0; s < slices_; ++s) {
        tracer.set_step(s);
        const auto t0 = Clock::now();
        {
            auto step = tracer.span("app.step");
            phase.note_pending();
            auto span = tracer.span("sim.run");
            net->run_for(sim::milliseconds(kSliceMs));
        }
        r.step_s.push_back(seconds_between(t0, Clock::now()));
    }
    tracer.set_step(kNoStep);
    phase.finish(r.layers);
    r.work.txns = answered() - answered_before;
    r.work.app_bytes = r.work.txns * (kRequestBytes + kResponseBytes);
    r.work.delivered = counter(r.layers.counters, "ip.deliver").value_or(0);
    r.work.forwards = counter(r.layers.counters, "ip.fwd").value_or(0);

    // Untimed: stop issuing and let every outstanding transaction finish.
    for (auto& c : clients) c->stop();
    net->run_for(sim::seconds(kDrainSeconds));

    if (r.traced) {
        std::vector<util::Ipv4Address> dsts = client_addrs;
        dsts.push_back(srv->address());
        r.layers.lpm_ns = time_lookups(core_gw->ip().routing_table(), dsts, tracer);
    }

    // --- checks ------------------------------------------------------------
    RpcObservation obs;
    util::Percentiles latencies;
    for (const auto& c : clients) {
        obs.clients.emplace_back(c->requests_sent(), c->responses_received());
        latencies.merge(c->latencies_ms());
    }
    if (faults_.drop_response) {
        for (auto& [sent, got] : obs.clients) {
            if (got > 0) {
                --got;
                break;
            }
        }
        obs.latency_samples = latencies.count() - 1;
    } else {
        obs.latency_samples = latencies.count();
    }
    obs.served = server->requests_served();
    Verdict v = check_rpc(obs);
    r.checks = std::move(v.checks);
    r.attempted = v.attempted;
    r.failed = v.failed;

    // --- determinism signature --------------------------------------------
    Fnv sig;
    sig.counters(registry_totals(net->metrics()));
    sig.u64(net->sim().events_processed());
    sig.u64(obs.served);
    for (const auto& [sent, got] : obs.clients) {
        sig.u64(sent);
        sig.u64(got);
    }
    for (const double p : {50.0, 90.0, 99.0}) sig.f64(latencies.percentile(p));
    sig.u64(net->topology().signature());
    r.signature = sig.value();

    char buf[96];
    std::snprintf(buf, sizeof buf, "%.3f/%.3f/%.3f", latencies.percentile(50.0),
                  latencies.percentile(90.0), latencies.percentile(99.0));
    r.notes["sim_latency_ms_p50_p90_p99"] = buf;
    return r;
}

}  // namespace

std::unique_ptr<Workload> make_rpc_churn(const Params& params) {
    return std::make_unique<RpcChurn>(params);
}

}  // namespace perfbench
