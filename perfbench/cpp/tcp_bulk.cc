// tcp_bulk: 64 concurrent TCP bulk connections from one host to another
// across a chain of three gateways (four links), default TcpConfig (GSO and
// GRO on, MSS 1460). Closed loop: a step is one round in which every
// connection queues its next 16 KiB chunk, then the engine drains. The time
// goes to the TCP data path and to links carrying full-size frames; route
// tables hold a handful of entries and set-up is trivial, so a route-lookup
// change should not move this workload.
//
// Each connection sends its own pseudo-random stream, drawn from the run
// seed; the receiver compares every delivered byte with the sent stream at
// its offset.
#include <array>
#include <cstring>
#include <random>

#include "core/internetwork.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace catenet;

constexpr std::uint32_t kConnections = 64;
constexpr std::size_t kChunk = 16 * 1024;
constexpr std::uint16_t kPort = 5001;
constexpr std::uint32_t kDefaultRounds = 128;
// Stream byte i of connection c is pattern[(start_c + i) % kPatternBytes]:
// one pattern shared by every connection, each starting at its own offset,
// so the benchmark's own reads stay small next to the TCP buffers. A prime
// length makes successive chunks start at different pattern offsets.
constexpr std::size_t kPatternBytes = 65521;
// Where the planted corruption lands in connection 0's stream.
constexpr std::uint64_t kCorruptOffset = 1000;

class TcpBulk final : public Workload {
public:
    explicit TcpBulk(const Params& params)
        : rounds_(params.steps != 0 ? params.steps : kDefaultRounds),
          seed_(params.seed),
          faults_(params.faults) {
        std::mt19937_64 rng(params.seed);
        pattern_.resize(kPatternBytes);
        for (auto& b : pattern_) b = static_cast<std::uint8_t>(rng() >> 56);
        for (auto& start : starts_) start = rng() % kPatternBytes;
    }

    InstanceResult run_instance(Tracer& tracer) override;

private:
    /// Copies stream bytes [offset, offset + out.size()) of connection c.
    void stream_bytes(std::uint32_t c, std::uint64_t offset,
                      std::span<std::uint8_t> out) const {
        std::size_t at = static_cast<std::size_t>((starts_[c] + offset) % kPatternBytes);
        std::size_t done = 0;
        while (done < out.size()) {
            const std::size_t n = std::min(out.size() - done, kPatternBytes - at);
            std::memcpy(out.data() + done, pattern_.data() + at, n);
            done += n;
            at = 0;
        }
    }

    /// Delivered bytes of connection c at `offset` that differ from the
    /// sent stream.
    std::uint64_t mismatches(std::uint32_t c, std::uint64_t offset,
                             std::span<const std::uint8_t> data) const {
        std::size_t at = static_cast<std::size_t>((starts_[c] + offset) % kPatternBytes);
        std::size_t done = 0;
        std::uint64_t bad = 0;
        while (done < data.size()) {
            const std::size_t n = std::min(data.size() - done, kPatternBytes - at);
            const std::uint8_t* want = pattern_.data() + at;
            if (std::memcmp(data.data() + done, want, n) != 0) {
                for (std::size_t i = 0; i < n; ++i) bad += data[done + i] != want[i];
            }
            done += n;
            at = 0;
        }
        return bad;
    }

    std::uint32_t rounds_;
    std::uint64_t seed_;
    Faults faults_;
    std::vector<std::uint8_t> pattern_;
    std::array<std::uint64_t, kConnections> starts_{};
};

InstanceResult TcpBulk::run_instance(Tracer& tracer) {
    InstanceResult r;
    r.traced = tracer.enabled();

    link::LinkParams p;
    p.bits_per_second = 1'000'000'000;
    p.propagation_delay = sim::microseconds(100);
    // Deeper than every connection's full window together (64 x 64 KiB),
    // so no segment is ever dropped at a queue.
    p.queue_capacity_packets = 4096;

    // Declared first so it is destroyed last: the sockets below hold
    // timers on its engine.
    std::unique_ptr<core::Internetwork> net;
    std::vector<StreamObservation> streams(kConnections);
    std::vector<std::shared_ptr<tcp::TcpSocket>> senders;
    std::vector<std::shared_ptr<tcp::TcpSocket>> receivers;
    std::map<std::uint16_t, std::uint32_t> conn_of_port;  // sender port -> connection

    // --- set-up ----------------------------------------------------------
    const auto t_setup = Clock::now();
    core::Host* sender = nullptr;
    core::Host* receiver = nullptr;
    std::vector<core::Gateway*> gws;
    std::size_t heap_before = 0;
    std::size_t heap_after = 0;
    {
        auto root = tracer.span("app.setup");
        {
            auto span = tracer.span("core.build");
            net = std::make_unique<core::Internetwork>(seed_);
            heap_before = heap_bytes();
            sender = &net->add_host("sender");
            receiver = &net->add_host("receiver");
            heap_after = heap_bytes();
            for (int i = 0; i < 3; ++i) gws.push_back(&net->add_gateway("gw" + std::to_string(i)));
            net->connect(*sender, *gws[0], p);
            net->connect(*gws[0], *gws[1], p);
            net->connect(*gws[1], *gws[2], p);
            net->connect(*gws[2], *receiver, p);
        }
        {
            auto span = tracer.span("core.routes");
            net->use_static_routes();
        }
        receiver->tcp().listen(kPort, [&](std::shared_ptr<tcp::TcpSocket> s) {
            const auto it = conn_of_port.find(s->remote_port());
            if (it == conn_of_port.end()) return;
            const std::uint32_t c = it->second;
            tcp::TcpSocket* raw = s.get();
            receivers.push_back(std::move(s));
            raw->on_data = [this, c, &streams](std::span<const std::uint8_t> data) {
                StreamObservation& st = streams[c];
                if (faults_.corrupt_byte && c == 0 && st.received <= kCorruptOffset &&
                    kCorruptOffset < st.received + data.size()) {
                    std::vector<std::uint8_t> copy(data.begin(), data.end());
                    copy[kCorruptOffset - st.received] ^= 0x01;
                    st.mismatched += mismatches(c, st.received, copy);
                } else {
                    st.mismatched += mismatches(c, st.received, data);
                }
                st.received += data.size();
            };
        });
        for (std::uint32_t c = 0; c < kConnections; ++c) {
            auto span = tracer.span("tcp.connect");
            senders.push_back(sender->tcp().connect(receiver->address(), kPort));
            conn_of_port[senders.back()->local_port()] = c;
        }
        auto span = tracer.span("sim.run");
        net->run_for(sim::seconds(1));  // handshakes complete
    }
    r.setup_s = seconds_between(t_setup, Clock::now());
    r.bytes_per_host = static_cast<double>(heap_after - std::min(heap_after, heap_before)) / 2.0;

    // --- timed steps -------------------------------------------------------
    std::vector<std::uint8_t> chunk(kChunk);
    std::uint64_t refused = 0;
    std::uint64_t received_before = 0;
    for (const auto& st : streams) received_before += st.received;
    TimedPhase phase(*net);
    r.step_s.reserve(rounds_);
    for (std::uint32_t round = 0; round < rounds_; ++round) {
        tracer.set_step(round);
        const auto t0 = Clock::now();
        {
            auto step = tracer.span("app.step");
            for (std::uint32_t c = 0; c < kConnections; ++c) {
                StreamObservation& st = streams[c];
                stream_bytes(c, st.sent, chunk);
                std::size_t accepted = 0;
                {
                    auto span = tracer.span("tcp.send");
                    accepted = senders[c]->send(chunk);
                }
                st.sent += accepted;
                refused += kChunk - accepted;
            }
            phase.note_pending();
            auto span = tracer.span("sim.run");
            // Drains the round: at 1 Gb/s the 1 MiB round clears in
            // milliseconds of simulated time; the rest of the second lets
            // the last delayed ACKs fire.
            net->run_for(sim::seconds(1));
        }
        r.step_s.push_back(seconds_between(t0, Clock::now()));
    }
    tracer.set_step(kNoStep);
    phase.finish(r.layers);

    std::uint64_t received = 0;
    for (const auto& st : streams) received += st.received;
    r.work.app_bytes = received - received_before;
    r.work.delivered = counter(r.layers.counters, "ip.deliver").value_or(0);
    r.work.forwards = counter(r.layers.counters, "ip.fwd").value_or(0);
    r.work.txns = r.work.app_bytes / kChunk;  // a transaction here is one chunk

    if (r.traced) {
        r.layers.lpm_ns = time_lookups(gws[1]->ip().routing_table(),
                                       {receiver->address(), sender->address()}, tracer);
    }

    // --- checks ------------------------------------------------------------
    Verdict v = check_bulk(streams);
    if (refused != 0) {
        v.checks.push_back(Check{"send_accepted_chunk", false,
                                 std::to_string(refused) +
                                     " bytes refused by a drained send buffer"});
    }
    r.checks = std::move(v.checks);
    r.attempted = v.attempted;
    r.failed = v.failed;

    // --- determinism signature --------------------------------------------
    Fnv sig;
    sig.counters(registry_totals(net->metrics()));
    sig.u64(net->sim().events_processed());
    for (const auto& st : streams) sig.u64(st.received);
    // Every delivered byte was compared with its stream, so the streams'
    // content stands for what was delivered.
    sig.bytes(pattern_.data(), pattern_.size());
    for (const std::uint64_t start : starts_) sig.u64(start);
    sig.u64(net->topology().signature());
    r.signature = sig.value();

    for (auto& s : receivers) s->on_data = nullptr;
    return r;
}

}  // namespace

std::unique_ptr<Workload> make_tcp_bulk(const Params& params) {
    return std::make_unique<TcpBulk>(params);
}

}  // namespace perfbench
