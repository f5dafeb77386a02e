#include "checks.h"

#include <algorithm>

namespace perfbench {

namespace {

Check make(std::string name, bool ok, std::string detail) {
    return Check{std::move(name), ok, ok ? std::string() : std::move(detail)};
}

}  // namespace

Check check_ip_balance(const NodeCounters& nodes) {
    for (const auto& [name, c] : nodes) {
        const auto rx = counter(c, "ip.rx");
        const auto fwd = counter(c, "ip.fwd");
        const auto deliver = counter(c, "ip.deliver");
        if (!rx || !fwd || !deliver) {
            return make("ip_balance", false, "ip.rx/ip.fwd/ip.deliver counter missing");
        }
        const std::uint64_t drops = counter_sum(c, "ip.drop.");
        if (*rx != *fwd + *deliver + drops) {
            return make("ip_balance", false,
                        name + ": ip.rx " + std::to_string(*rx) + " != fwd " +
                            std::to_string(*fwd) + " + deliver " +
                            std::to_string(*deliver) + " + drops " +
                            std::to_string(drops));
        }
    }
    return make("ip_balance", true, "");
}

Verdict check_soak(const SoakObservation& obs) {
    Verdict v;
    v.attempted = obs.planned;
    v.checks.push_back(make("injected",
                            obs.injected == obs.planned,
                            "injected " + std::to_string(obs.injected) + " of " +
                                std::to_string(obs.planned) + " planned"));

    std::uint64_t missing = obs.planned - std::min(obs.planned, obs.injected);
    std::uint64_t wrong_hosts = 0;
    std::uint64_t delivered = 0;
    const std::size_t n = std::max(obs.expected.size(), obs.delivered.size());
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t want = i < obs.expected.size() ? obs.expected[i] : 0;
        const std::uint64_t got = i < obs.delivered.size() ? obs.delivered[i] : 0;
        delivered += got;
        if (got != want) ++wrong_hosts;
        if (got < want) missing += want - got;
    }
    v.checks.push_back(make("delivered_equals_injected", delivered == obs.injected,
                            "delivered " + std::to_string(delivered) + " != injected " +
                                std::to_string(obs.injected)));
    v.checks.push_back(make("per_host_delivery", wrong_hosts == 0,
                            std::to_string(wrong_hosts) +
                                " hosts received a different count than addressed"));
    v.checks.push_back(check_ip_balance(obs.gateways));
    v.failed = std::min(missing, v.attempted);
    return v;
}

Verdict check_bulk(const std::vector<StreamObservation>& streams) {
    Verdict v;
    std::uint64_t short_streams = 0;
    std::uint64_t corrupt_streams = 0;
    for (const StreamObservation& s : streams) {
        v.attempted += s.sent;
        const std::uint64_t undelivered = s.sent - std::min(s.sent, s.received);
        v.failed += undelivered + s.mismatched;
        if (s.received != s.sent) ++short_streams;
        if (s.mismatched != 0) ++corrupt_streams;
    }
    v.failed = std::min(v.failed, v.attempted);
    v.checks.push_back(make("bytes_delivered", short_streams == 0,
                            std::to_string(short_streams) +
                                " connections delivered a different byte count than sent"));
    v.checks.push_back(make("bytes_in_order", corrupt_streams == 0,
                            std::to_string(corrupt_streams) +
                                " connections delivered bytes that differ from the sent stream"));
    return v;
}

Verdict check_rpc(const RpcObservation& obs) {
    Verdict v;
    std::uint64_t answered = 0;
    std::uint64_t unanswered_clients = 0;
    for (const auto& [sent, got] : obs.clients) {
        v.attempted += sent;
        answered += got;
        v.failed += sent - std::min(sent, got);
        if (got != sent) ++unanswered_clients;
    }
    v.checks.push_back(make("every_request_answered", unanswered_clients == 0,
                            std::to_string(v.failed) + " requests unanswered across " +
                                std::to_string(unanswered_clients) + " clients"));
    v.checks.push_back(make("served_equals_answered", obs.served == answered,
                            "server served " + std::to_string(obs.served) +
                                ", clients saw " + std::to_string(answered) + " answers"));
    v.checks.push_back(make("latency_per_answer", obs.latency_samples == answered,
                            std::to_string(obs.latency_samples) + " latency samples for " +
                                std::to_string(answered) + " answers"));
    return v;
}

}  // namespace perfbench
