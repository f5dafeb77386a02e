// The benchmark's correctness checks. Each workload records what it asked
// the program to do and what it observed come out; these functions compare
// the two. Any failed check makes the run exit nonzero.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "probe.h"

namespace perfbench {

struct Check {
    std::string name;
    bool ok = true;
    std::string detail;  ///< why it failed; empty when ok
};

struct Verdict {
    std::vector<Check> checks;
    std::uint64_t attempted = 0;  ///< operations asked of the program
    std::uint64_t failed = 0;     ///< of those, how many did not complete correctly

    bool ok() const {
        for (const Check& c : checks) {
            if (!c.ok) return false;
        }
        return true;
    }
};

/// Named counter blocks, e.g. one per gateway.
using NodeCounters = std::vector<std::pair<std::string, CounterMap>>;

/// At every node: ip.rx == ip.fwd + ip.deliver + sum of ip.drop.*.
Check check_ip_balance(const NodeCounters& nodes);

/// soak_forward: every planned datagram was injected and reached the host
/// it was addressed to, and the gateways' IP counters balance.
struct SoakObservation {
    std::uint64_t planned = 0;
    std::uint64_t injected = 0;
    std::vector<std::uint64_t> expected;   ///< per leaf host, from the plan
    std::vector<std::uint64_t> delivered;  ///< per leaf host, as tallied
    NodeCounters gateways;
};
Verdict check_soak(const SoakObservation& obs);

/// tcp_bulk: per connection, the receiver saw exactly the bytes the sender
/// queued, in order (each byte compared with the sent stream at its offset).
struct StreamObservation {
    std::uint64_t sent = 0;        ///< bytes the application queued
    std::uint64_t received = 0;    ///< bytes delivered in order to the receiver
    std::uint64_t mismatched = 0;  ///< delivered bytes that differ from the sent stream
};
Verdict check_bulk(const std::vector<StreamObservation>& streams);

/// rpc_churn: every request was answered by the response carrying its id
/// (RpcClient counts only responses whose id matches an outstanding
/// request), and the server served exactly the requests the clients sent.
struct RpcObservation {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> clients;  ///< (sent, answered)
    std::uint64_t served = 0;
    std::uint64_t latency_samples = 0;
};
Verdict check_rpc(const RpcObservation& obs);

}  // namespace perfbench
