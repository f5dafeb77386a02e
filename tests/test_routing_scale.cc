// Routing at scale: the historical infinity=16 diameter wall, convergence
// on randomized topologies (property sweep), and routing-protocol traffic
// overhead growth.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <map>

#include "core/internetwork.h"
#include "core/topology_gen.h"
#include "ip/protocols.h"
#include "ip/routing_table.h"
#include "link/presets.h"
#include "util/random.h"

namespace catenet::routing {
namespace {

DvConfig fast_dv(std::uint32_t infinity = 16) {
    DvConfig c;
    c.period = sim::seconds(1);
    c.route_timeout = sim::milliseconds(3500);
    c.infinity = infinity;
    return c;
}

TEST(DvScale, HistoricalInfinity16CapsTheDiameter) {
    // A 20-gateway chain: with infinity 16, the far end's subnet is
    // unreachable from the near end (metric saturates); with a larger
    // infinity the same topology converges. This is the RIP-era scaling
    // wall that motivated richer routing, noted in E4.
    for (const std::uint32_t infinity : {16u, 64u}) {
        core::Internetwork net(111);
        core::Host& near = net.add_host("near");
        core::Host& far = net.add_host("far");
        std::vector<core::Gateway*> gws;
        for (int i = 0; i < 20; ++i) {
            gws.push_back(&net.add_gateway("g" + std::to_string(i)));
            if (i > 0) net.connect(*gws[i - 1], *gws[i], link::presets::ethernet_hop());
        }
        net.connect(near, *gws.front(), link::presets::ethernet_hop());
        net.connect(far, *gws.back(), link::presets::ethernet_hop());
        for (auto* g : gws) g->enable_distance_vector(fast_dv(infinity));
        net.install_host_default_routes();
        net.run_for(sim::seconds(60));

        const auto route = gws.front()->ip().routing_table().lookup(far.address());
        if (infinity == 16) {
            EXPECT_FALSE(route.has_value()) << "metric must saturate at 16";
        } else {
            ASSERT_TRUE(route.has_value()) << "larger infinity must converge";
            // far's subnet is connected at g19 and advertised at metric 0,
            // so g0 sees it 19 advertisement hops later.
            EXPECT_EQ(route->metric, 19u);
        }
    }
}

// Property: on a random connected gateway graph, DV converges to full
// host-to-host reachability, and reachability actually works (pings).
class RandomGraphConvergence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphConvergence, ConvergesAndRoutes) {
    const std::uint64_t seed = GetParam();
    core::Internetwork net(seed);
    util::Rng rng(seed * 31 + 7);

    constexpr int kGateways = 8;
    std::vector<core::Gateway*> gws;
    for (int i = 0; i < kGateways; ++i) {
        gws.push_back(&net.add_gateway("g" + std::to_string(i)));
    }
    // Random spanning tree (guarantees connectivity) + extra chords.
    for (int i = 1; i < kGateways; ++i) {
        const auto parent = static_cast<int>(rng.uniform(0, static_cast<std::uint64_t>(i - 1)));
        net.connect(*gws[parent], *gws[i], link::presets::ethernet_hop());
    }
    for (int c = 0; c < 4; ++c) {
        const auto x = static_cast<int>(rng.uniform(0, kGateways - 1));
        const auto y = static_cast<int>(rng.uniform(0, kGateways - 1));
        if (x != y) net.connect(*gws[x], *gws[y], link::presets::ethernet_hop());
    }
    std::vector<core::Host*> hosts;
    for (int i = 0; i < 3; ++i) {
        hosts.push_back(&net.add_host("h" + std::to_string(i)));
        const auto at = static_cast<int>(rng.uniform(0, kGateways - 1));
        net.connect(*hosts.back(), *gws[at], link::presets::ethernet_hop());
    }
    for (auto* g : gws) g->enable_distance_vector(fast_dv(64));
    net.install_host_default_routes();
    net.run_for(sim::seconds(30));

    // All-pairs ping.
    int replies = 0;
    int expected = 0;
    for (auto* src : hosts) {
        src->ip().register_protocol(
            ip::kProtoIcmp,
            [&replies](const ip::Ipv4Header&, std::span<const std::uint8_t> p,
                       std::size_t) {
                auto m = ip::decode_icmp(p);
                if (m && m->type == ip::IcmpType::EchoReply) ++replies;
            });
    }
    for (auto* src : hosts) {
        for (auto* dst : hosts) {
            if (src == dst) continue;
            ASSERT_TRUE(src->ip().ping(dst->address(), 1, 1)) << "seed " << seed;
            ++expected;
        }
    }
    net.run_for(sim::seconds(5));
    EXPECT_EQ(replies, expected) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphConvergence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(DvOverhead, UpdateTrafficScalesWithTopologySize) {
    // Routing chatter is the standing cost of distributed management.
    std::vector<std::uint64_t> totals;
    for (int n : {3, 6, 12}) {
        core::Internetwork net(112);
        std::vector<core::Gateway*> gws;
        for (int i = 0; i < n; ++i) {
            gws.push_back(&net.add_gateway("g" + std::to_string(i)));
            if (i > 0) net.connect(*gws[i - 1], *gws[i], link::presets::ethernet_hop());
        }
        for (auto* g : gws) g->enable_distance_vector(fast_dv(64));
        net.run_for(sim::seconds(30));
        std::uint64_t updates = 0;
        for (auto* g : gws) updates += g->distance_vector()->stats().updates_sent;
        totals.push_back(updates);
    }
    EXPECT_LT(totals[0], totals[1]);
    EXPECT_LT(totals[1], totals[2]);
}

TEST(DvTriggered, BadNewsPropagatesFastOnlyWithTriggers) {
    // Chain g3 - g1 - g2(h). When g1-g2 dies, g1 invalidates instantly
    // (carrier loss); how fast g3 learns depends on triggered updates:
    // with them the poison arrives in milliseconds, without them g3 waits
    // for g1's next 10 s periodic.
    for (const bool triggered : {true, false}) {
        core::Internetwork net(113);
        core::Gateway& g1 = net.add_gateway("g1");
        core::Gateway& g2 = net.add_gateway("g2");
        core::Gateway& g3 = net.add_gateway("g3");
        core::Host& h = net.add_host("h");
        net.connect(g3, g1, link::presets::ethernet_hop());
        const auto direct = net.connect(g1, g2, link::presets::ethernet_hop());
        net.connect(g2, h, link::presets::ethernet_hop());
        DvConfig config;
        config.period = sim::seconds(10);  // slow periodic
        config.route_timeout = sim::seconds(35);
        config.triggered_updates = triggered;
        g1.enable_distance_vector(config);
        g2.enable_distance_vector(config);
        g3.enable_distance_vector(config);
        net.run_for(sim::seconds(40));
        ASSERT_TRUE(g3.ip().routing_table().lookup(h.address()).has_value());

        net.fail_link(direct);
        const auto before = net.sim().now();
        double lost_at = -1;
        for (int tick = 0; tick < 60; ++tick) {
            net.run_for(sim::milliseconds(250));
            if (!g3.ip().routing_table().lookup(h.address()).has_value()) {
                lost_at = (net.sim().now() - before).seconds();
                break;
            }
        }
        ASSERT_GE(lost_at, 0.0) << "triggered=" << triggered;
        if (triggered) {
            EXPECT_LT(lost_at, 2.0) << "triggered poison must beat the 10 s period";
        } else {
            EXPECT_GT(lost_at, 4.0) << "without triggers, the period dominates";
        }
    }
}

// --- RoutingTable structure at population scale ------------------------------
//
// The flat sorted-array FIB (binary-search install/find, 33-bit length
// mask, bulk_load batch path) must behave exactly like the naive table it
// replaced, at sizes where the difference matters.

TEST(FibBulkLoad, MatchesSequentialInstalls) {
    // The same 4096-route set loaded both ways must produce identical
    // snapshots and identical lookups.
    std::vector<ip::Route> batch;
    for (std::uint32_t i = 0; i < 4096; ++i) {
        ip::Route r;
        r.prefix = util::Ipv4Prefix(util::Ipv4Address(10, (i >> 8) & 0xff, i & 0xff, 0),
                                    24);
        r.next_hop = util::Ipv4Address(192, 168, 0, 1 + (i % 200));
        r.ifindex = i % 4;
        r.origin = "static";
        batch.push_back(r);
    }
    ip::RoutingTable sequential;
    for (const auto& r : batch) sequential.install(r);
    ip::RoutingTable bulk;
    bulk.bulk_load(batch);

    ASSERT_EQ(sequential.size(), bulk.size());
    const auto a = sequential.routes();
    const auto b = bulk.routes();
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].prefix, b[i].prefix);
        EXPECT_EQ(a[i].next_hop, b[i].next_hop);
        EXPECT_EQ(a[i].ifindex, b[i].ifindex);
    }
    for (std::uint32_t i = 0; i < 4096; i += 37) {
        const util::Ipv4Address dst(10, (i >> 8) & 0xff, i & 0xff, 99);
        const auto ra = sequential.lookup(dst);
        const auto rb = bulk.lookup(dst);
        ASSERT_TRUE(ra.has_value());
        ASSERT_TRUE(rb.has_value());
        EXPECT_EQ(ra->next_hop, rb->next_hop);
    }
}

TEST(FibBulkLoad, LaterDuplicateWinsLikeSequentialInstall) {
    ip::Route first;
    first.prefix = util::Ipv4Prefix::parse("10.1.0.0/16");
    first.next_hop = util::Ipv4Address(1, 1, 1, 1);
    ip::Route second = first;
    second.next_hop = util::Ipv4Address(2, 2, 2, 2);

    ip::RoutingTable table;
    table.bulk_load(std::vector<ip::Route>{first, second});
    EXPECT_EQ(table.size(), 1u);
    const auto found = table.find(first.prefix);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->next_hop, second.next_hop) << "batch order is install order";
}

TEST(FibBulkLoad, UpdatesExistingRoutesInPlace) {
    // A pointer handed out before a bulk_load must stay valid and observe
    // the batch's replacement — the generation-checked route cache relies
    // on exactly this interning contract.
    ip::RoutingTable table;
    ip::Route seed;
    seed.prefix = util::Ipv4Prefix::parse("10.5.0.0/16");
    seed.next_hop = util::Ipv4Address(1, 1, 1, 1);
    table.install(seed);
    const auto before = table.find(seed.prefix);
    ASSERT_TRUE(before.has_value());
    const auto generation = table.generation();

    ip::Route replacement = seed;
    replacement.next_hop = util::Ipv4Address(9, 9, 9, 9);
    ip::Route fresh;
    fresh.prefix = util::Ipv4Prefix::parse("10.6.0.0/16");
    fresh.next_hop = util::Ipv4Address(8, 8, 8, 8);
    table.bulk_load(std::vector<ip::Route>{replacement, fresh});

    EXPECT_EQ(before.get(), table.find(seed.prefix).get()) << "same interned node";
    EXPECT_EQ(before->next_hop, replacement.next_hop) << "updated in place";
    EXPECT_EQ(table.size(), 2u);
    EXPECT_EQ(table.generation(), generation + 1) << "one bump per batch";
}

namespace {

/// A mixed-length batch (/16, /24, /28 routes) in the table's key order:
/// length descending, then address ascending.
std::vector<ip::Route> sorted_batch() {
    std::vector<ip::Route> batch;
    for (const int len : {28, 24, 16}) {
        for (std::uint32_t i = 0; i < 200; ++i) {
            ip::Route r;
            const util::Ipv4Address base =
                len == 28   ? util::Ipv4Address(12, 0, i >> 4, (i & 0xf) << 4)
                : len == 24 ? util::Ipv4Address(10, 0, i, 0)
                            : util::Ipv4Address(11, i, 0, 0);
            r.prefix = util::Ipv4Prefix(base, len);
            r.next_hop = util::Ipv4Address(192, 168, static_cast<std::uint8_t>(len), 1 + i);
            r.ifindex = i % 3;
            r.metric = i;
            batch.push_back(r);
        }
    }
    return batch;
}

void expect_same_routes(const std::vector<ip::Route>& a, const std::vector<ip::Route>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].prefix, b[i].prefix) << i;
        EXPECT_EQ(a[i].next_hop, b[i].next_hop) << i;
        EXPECT_EQ(a[i].ifindex, b[i].ifindex) << i;
        EXPECT_EQ(a[i].metric, b[i].metric) << i;
    }
}

}  // namespace

TEST(FibBulkLoad, SortedAndShuffledBatchesLoadAlike) {
    // The sorted batch skips the dedup sort; a shuffled copy pays it. Both
    // must leave the same ordered table, bump the generation exactly once,
    // and update previously installed routes in place.
    const std::vector<ip::Route> sorted = sorted_batch();
    std::vector<ip::Route> shuffled = sorted;
    util::Rng rng(5);
    for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
        std::swap(shuffled[i], shuffled[rng.uniform(0, i)]);
    }

    auto load = [&](const std::vector<ip::Route>& batch) {
        ip::RoutingTable table;
        ip::Route stale = sorted[17];
        stale.next_hop = util::Ipv4Address(1, 1, 1, 1);
        table.install(stale);
        const ip::Route* handed_out = table.find(stale.prefix).get();
        const auto generation = table.generation();
        table.bulk_load(batch);
        EXPECT_EQ(table.generation(), generation + 1) << "one bump per batch";
        EXPECT_EQ(table.find(stale.prefix).get(), handed_out) << "same interned node";
        EXPECT_EQ(handed_out->next_hop, sorted[17].next_hop) << "sees the replacement";
        return table.routes();
    };
    const auto from_sorted = load(sorted);
    const auto from_shuffled = load(shuffled);
    expect_same_routes(from_sorted, from_shuffled);
    expect_same_routes(from_sorted, sorted);
}

TEST(FibBulkLoad, AdjacentDuplicatesInSortedBatchKeepTheLast) {
    // Key order, but with repeated keys: not strictly increasing, so the
    // batch takes the dedup path and the later entry of each run wins.
    std::vector<ip::Route> batch = sorted_batch();
    for (const std::size_t at : {std::size_t{0}, std::size_t{450}, batch.size() - 1}) {
        ip::Route again = batch[at];
        again.next_hop = util::Ipv4Address(7, 7, 7, static_cast<std::uint8_t>(at % 250));
        batch.insert(batch.begin() + static_cast<std::ptrdiff_t>(at) + 1, again);
    }
    ip::RoutingTable table;
    table.bulk_load(batch);
    EXPECT_EQ(table.size(), batch.size() - 3);
    ip::RoutingTable sequential;
    for (const ip::Route& r : batch) sequential.install(r);
    expect_same_routes(table.routes(), sequential.routes());
}

// --- Static routes computed on worker threads ------------------------------
//
// use_static_routes() spreads its origins over every CPU once the work is
// large. Whatever the thread count, each table must hold exactly what a
// plain single-threaded BFS computes.

TEST(StaticRoutes, WorkerBuiltTablesMatchSequentialBfs) {
    core::Internetwork net(3);
    core::TwoTierParams params;
    params.gateways = 512;  // 512 origins x ~1k subnet rows: the worker path
    params.lans = 256;
    params.hosts_per_lan = 4;
    params.seed = 11;
    const core::TwoTierTopology topo = core::generate_two_tier(net, params);
    const core::TopologyStore& store = net.topology();

    constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
    const std::size_t n = store.node_count();
    std::vector<std::uint32_t> dist(n);
    std::vector<const core::Incidence*> first_hop(n);
    core::TopologyStore::Attachment scratch[2];
    std::size_t sampled = 0;
    for (core::Gateway* gw : topo.gateways) {
        const core::NodeId origin = gw->id();
        std::fill(dist.begin(), dist.end(), kInf);
        std::fill(first_hop.begin(), first_hop.end(), nullptr);
        std::deque<core::NodeId> queue{origin};
        dist[origin] = 0;
        while (!queue.empty()) {
            const core::NodeId current = queue.front();
            queue.pop_front();
            for (const core::Incidence& edge : store.neighbors(current)) {
                if (dist[edge.peer] != kInf) continue;
                dist[edge.peer] = dist[current] + 1;
                first_hop[edge.peer] = current == origin ? &edge : first_hop[current];
                queue.push_back(edge.peer);
            }
        }
        // Keyed in table order: longest prefix first, then by address.
        std::map<std::pair<int, std::uint32_t>, ip::Route> expected;
        for (const core::TopologyStore::SubnetRef& ref : store.subnets()) {
            const auto attached = store.subnet_attachments(ref, scratch);
            if (std::any_of(attached.begin(), attached.end(),
                            [&](const auto& att) { return att.node == origin; })) {
                continue;
            }
            core::NodeId best = core::kNoNode;
            for (const auto& att : attached) {
                if (dist[att.node] != kInf &&
                    (best == core::kNoNode || dist[att.node] < dist[best])) {
                    best = att.node;
                }
            }
            if (best == core::kNoNode) continue;
            ip::Route route;
            route.prefix = store.subnet_prefix(ref);
            route.next_hop = first_hop[best]->peer_addr;
            route.ifindex = first_hop[best]->ifindex;
            route.metric = dist[best];
            expected[{-route.prefix.length(), route.prefix.address().value()}] = route;
        }

        const ip::RoutingTable& table = gw->ip().routing_table();
        std::vector<ip::Route> got;
        for (const ip::Route& r : table.routes()) {
            if (r.origin == "static") got.push_back(r);
        }
        ASSERT_EQ(got.size(), expected.size()) << "gateway " << origin;
        std::size_t i = 0;
        for (const auto& [key, want] : expected) {
            const ip::Route& have = got[i++];
            ASSERT_EQ(have.prefix, want.prefix) << "gateway " << origin;
            ASSERT_EQ(have.next_hop, want.next_hop) << "gateway " << origin;
            ASSERT_EQ(have.ifindex, want.ifindex) << "gateway " << origin;
            ASSERT_EQ(have.metric, want.metric) << "gateway " << origin;
            if (i % 13 == 0) {
                const util::Ipv4Address dst(want.prefix.address().value() + 5);
                const auto hit = table.lookup(dst);
                ASSERT_TRUE(hit.has_value()) << dst;
                EXPECT_EQ(hit->prefix, want.prefix) << dst;
                EXPECT_EQ(hit->next_hop, want.next_hop) << dst;
                EXPECT_EQ(hit->ifindex, want.ifindex) << dst;
                ++sampled;
            }
        }
    }
    EXPECT_GT(sampled, 10'000u);
}

TEST(FibBinarySearch, LongestPrefixWinsAcrossLengths) {
    ip::RoutingTable table;
    const auto add = [&](const char* prefix, std::uint8_t octet) {
        ip::Route r;
        r.prefix = util::Ipv4Prefix::parse(prefix);
        r.next_hop = util::Ipv4Address(octet, octet, octet, octet);
        table.install(r);
    };
    add("0.0.0.0/0", 1);
    add("10.0.0.0/8", 2);
    add("10.20.0.0/16", 3);
    add("10.20.30.0/24", 4);

    EXPECT_EQ(table.lookup(util::Ipv4Address(10, 20, 30, 5))->next_hop.value(),
              util::Ipv4Address(4, 4, 4, 4).value());
    EXPECT_EQ(table.lookup(util::Ipv4Address(10, 20, 99, 5))->next_hop.value(),
              util::Ipv4Address(3, 3, 3, 3).value());
    EXPECT_EQ(table.lookup(util::Ipv4Address(10, 99, 99, 5))->next_hop.value(),
              util::Ipv4Address(2, 2, 2, 2).value());
    EXPECT_EQ(table.lookup(util::Ipv4Address(99, 99, 99, 5))->next_hop.value(),
              util::Ipv4Address(1, 1, 1, 1).value());

    // Removing the most specific falls back to the next length, and the
    // occupancy mask must not strand the now-empty /24 bucket.
    EXPECT_TRUE(table.remove(util::Ipv4Prefix::parse("10.20.30.0/24")));
    EXPECT_EQ(table.lookup(util::Ipv4Address(10, 20, 30, 5))->next_hop.value(),
              util::Ipv4Address(3, 3, 3, 3).value());
    EXPECT_FALSE(table.remove(util::Ipv4Prefix::parse("10.20.30.0/24")));
}

TEST(FibBinarySearch, RemoveByOriginRebuildsCounts) {
    ip::RoutingTable table;
    for (std::uint32_t i = 0; i < 64; ++i) {
        ip::Route r;
        r.prefix = util::Ipv4Prefix(util::Ipv4Address(10, 0, i, 0), 24);
        r.next_hop = util::Ipv4Address(1, 1, 1, 1);
        r.origin = (i % 2 == 0) ? "dv" : "static";
        table.install(r);
    }
    table.remove_by_origin("dv");
    EXPECT_EQ(table.size(), 32u);
    EXPECT_FALSE(table.lookup(util::Ipv4Address(10, 0, 2, 9)).has_value());
    EXPECT_TRUE(table.lookup(util::Ipv4Address(10, 0, 3, 9)).has_value());
}

}  // namespace
}  // namespace catenet::routing
