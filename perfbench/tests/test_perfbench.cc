// Tests of the benchmark itself: a shortened instance of every workload
// passes all its checks and repeats its signature, the checker rejects each
// planted fault, and the tracer attributes self time correctly.
#include <gtest/gtest.h>

#include <thread>

#include "checks.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

bool all_ok(const InstanceResult& r) {
    for (const Check& c : r.checks) {
        if (!c.ok) return false;
    }
    return !r.checks.empty();
}

InstanceResult short_run(const char* name, Faults faults = {}, std::uint32_t steps = 4) {
    Params p;
    p.seed = 11;
    p.steps = steps;
    p.faults = faults;
    auto w = make_workload(name, p);
    EXPECT_NE(w, nullptr);
    Tracer tracer;
    return w->run_instance(tracer);
}

TEST(PerfbenchWorkloads, ShortSoakForwardPassesAndRepeats) {
    Params p;
    p.seed = 11;
    p.steps = 3;
    auto w = make_workload("soak_forward", p);
    Tracer tracer;
    const InstanceResult a = w->run_instance(tracer);
    tracer.set_enabled(true);
    tracer.set_instance(1);
    const InstanceResult b = w->run_instance(tracer);  // traced: same simulation
    EXPECT_TRUE(all_ok(a));
    EXPECT_EQ(a.failed, 0u);
    EXPECT_EQ(a.attempted, 3u * 64u * 16u);  // waves x trains per wave x train
    EXPECT_EQ(a.work.delivered, a.attempted);
    EXPECT_GT(a.work.forwards, a.work.delivered);
    EXPECT_EQ(a.signature, b.signature);
    EXPECT_GT(b.layers.lpm_ns, 0.0);
    EXPECT_GT(tracer.total_seconds("core.inject", 1, true), 0.0);
}

TEST(PerfbenchWorkloads, ShortTcpBulkPassesAndRepeats) {
    const InstanceResult a = short_run("tcp_bulk");
    const InstanceResult b = short_run("tcp_bulk");
    EXPECT_TRUE(all_ok(a));
    EXPECT_EQ(a.failed, 0u);
    EXPECT_EQ(a.attempted, 64u * 4u * 16u * 1024u);
    EXPECT_EQ(a.work.app_bytes, a.attempted);
    EXPECT_EQ(a.signature, b.signature);
}

TEST(PerfbenchWorkloads, ShortRpcChurnPassesAndRepeats) {
    const InstanceResult a = short_run("rpc_churn", {}, 20);
    const InstanceResult b = short_run("rpc_churn", {}, 20);
    EXPECT_TRUE(all_ok(a));
    EXPECT_EQ(a.failed, 0u);
    EXPECT_GT(a.attempted, 0u);
    EXPECT_GT(a.work.txns, 0u);
    EXPECT_EQ(a.signature, b.signature);
}

TEST(PerfbenchWorkloads, SeedChangesTheInputs) {
    Params p;
    p.steps = 4;
    p.seed = 1;
    Tracer tracer;
    const auto a = make_workload("tcp_bulk", p)->run_instance(tracer);
    p.seed = 2;
    const auto b = make_workload("tcp_bulk", p)->run_instance(tracer);
    EXPECT_NE(a.signature, b.signature);
}

TEST(PerfbenchChecker, RejectsOneMissingDatagram) {
    Faults f;
    f.drop_datagram = true;
    const InstanceResult r = short_run("soak_forward", f, 2);
    EXPECT_FALSE(all_ok(r));
    EXPECT_EQ(r.failed, 1u);
}

TEST(PerfbenchChecker, RejectsOneCorruptedByte) {
    Faults f;
    f.corrupt_byte = true;
    const InstanceResult r = short_run("tcp_bulk", f);
    EXPECT_FALSE(all_ok(r));
    EXPECT_EQ(r.failed, 1u);
}

TEST(PerfbenchChecker, RejectsOneUnansweredRpc) {
    Faults f;
    f.drop_response = true;
    const InstanceResult r = short_run("rpc_churn", f, 20);
    EXPECT_FALSE(all_ok(r));
    EXPECT_EQ(r.failed, 1u);
}

TEST(PerfbenchChecker, RejectsUnbalancedIpCounters) {
    CounterMap c = {{"ip.rx", 10}, {"ip.fwd", 7}, {"ip.deliver", 2}, {"ip.drop.no_route", 1}};
    EXPECT_TRUE(check_ip_balance({{"gw", c}}).ok);
    c["ip.fwd"] = 6;
    EXPECT_FALSE(check_ip_balance({{"gw", c}}).ok);
    c.erase("ip.rx");
    EXPECT_FALSE(check_ip_balance({{"gw", c}}).ok);
}

TEST(PerfbenchTracer, SelfTimeSubtractsChildren) {
    Tracer t;
    t.set_enabled(true);
    {
        auto step = t.span("app.step");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        auto run = t.span("sim.run");
        std::this_thread::sleep_for(std::chrono::milliseconds(4));
    }
    {
        auto probe = t.span("ip.lookup");  // outside any step: not attributed
    }
    ASSERT_EQ(t.spans().size(), 3u);
    EXPECT_EQ(t.spans()[1].parent, 0);
    const auto self = t.self_seconds(0);
    EXPECT_EQ(self.count("ip"), 0u);
    const double step = t.total_seconds("app.step", 0, false);
    const double run = t.total_seconds("sim.run", 0, false);
    EXPECT_NEAR(self.at("app") + self.at("sim"), step, 1e-9);
    EXPECT_NEAR(self.at("sim"), run, 1e-9);
    EXPECT_GE(self.at("app"), 0.0015);
}

TEST(PerfbenchTracer, DisabledTracerRecordsNothing) {
    Tracer t;
    { auto s = t.span("app.step"); }
    EXPECT_TRUE(t.spans().empty());
}

}  // namespace
}  // namespace perfbench
