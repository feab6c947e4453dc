/**
 * @file
 * Tests for the machine topology model, parameterized over every
 * preset to check structural invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "topo/machine.hh"
#include "topo/presets.hh"

namespace microscale::topo
{
namespace
{

TEST(Machine, Rome128Shape)
{
    Machine m(rome128());
    EXPECT_EQ(m.numCpus(), 128u);
    EXPECT_EQ(m.numCores(), 64u);
    EXPECT_EQ(m.numCcxs(), 16u);
    EXPECT_EQ(m.numNodes(), 4u);
    EXPECT_EQ(m.numSockets(), 1u);
    EXPECT_EQ(m.threadsPerCore(), 2u);
}

TEST(Machine, LinuxStyleSmtNumbering)
{
    Machine m(rome128());
    // CPU c and c+64 share a core.
    EXPECT_EQ(m.siblingOf(0), 64u);
    EXPECT_EQ(m.siblingOf(64), 0u);
    EXPECT_EQ(m.siblingOf(63), 127u);
    EXPECT_EQ(m.coreOf(5), m.coreOf(69));
    EXPECT_TRUE(m.isPrimaryThread(5));
    EXPECT_FALSE(m.isPrimaryThread(69));
}

TEST(Machine, SmtOffHasNoSibling)
{
    Machine m(rome64smtOff());
    EXPECT_EQ(m.numCpus(), 64u);
    EXPECT_EQ(m.siblingOf(0), kInvalidCpu);
}

TEST(Machine, CcxAndNodeStructure)
{
    Machine m(rome128());
    // Cores 0-3 form CCX 0; cores 4-7 form CCX 1.
    EXPECT_EQ(m.ccxOf(0), 0u);
    EXPECT_EQ(m.ccxOf(3), 0u);
    EXPECT_EQ(m.ccxOf(4), 1u);
    // The SMT sibling is in the same CCX.
    EXPECT_EQ(m.ccxOf(64), 0u);
    // 4 CCXs per node.
    EXPECT_EQ(m.nodeOf(0), 0u);
    EXPECT_EQ(m.nodeOf(15), 0u);
    EXPECT_EQ(m.nodeOf(16), 1u);
    EXPECT_EQ(m.nodeOfCcx(3), 0u);
    EXPECT_EQ(m.nodeOfCcx(4), 1u);
    EXPECT_EQ(m.ccxsOfNode(1), (std::vector<CcxId>{4, 5, 6, 7}));
}

TEST(Machine, CpusOfCcxContainsBothThreads)
{
    Machine m(rome128());
    const CpuMask ccx0 = m.cpusOfCcx(0);
    EXPECT_EQ(ccx0.count(), 8u);
    EXPECT_TRUE(ccx0.test(0));
    EXPECT_TRUE(ccx0.test(3));
    EXPECT_TRUE(ccx0.test(64));
    EXPECT_TRUE(ccx0.test(67));
    EXPECT_FALSE(ccx0.test(4));
}

TEST(Machine, MemLatencyMatrix)
{
    const MachineParams p = rome128();
    Machine m(p);
    EXPECT_DOUBLE_EQ(m.memLatencyNs(0, 0), p.mem.localLatencyNs);
    EXPECT_DOUBLE_EQ(m.memLatencyNs(0, 1),
                     p.mem.localLatencyNs * p.mem.intraSocketFactor);
    EXPECT_DOUBLE_EQ(m.memLatencyNs(1, 0), m.memLatencyNs(0, 1));
}

TEST(Machine, CrossSocketLatency)
{
    const MachineParams p = rome128x2();
    Machine m(p);
    EXPECT_EQ(m.numNodes(), 8u);
    EXPECT_DOUBLE_EQ(m.memLatencyNs(0, 7),
                     p.mem.localLatencyNs * p.mem.interSocketFactor);
    EXPECT_DOUBLE_EQ(m.memLatencyNs(0, 3),
                     p.mem.localLatencyNs * p.mem.intraSocketFactor);
}

TEST(Machine, DescribeMentionsName)
{
    Machine m(small8());
    EXPECT_NE(m.describe().find("small8"), std::string::npos);
}

TEST(MachineDeathTest, OutOfRangeLookupsPanic)
{
    Machine m(small8());
    EXPECT_DEATH(m.coreOf(m.numCpus()), "out of range");
    EXPECT_DEATH(m.ccxOf(m.numCpus()), "ccxOf: cpu 8 out of range");
    EXPECT_DEATH(m.nodeOf(m.numCpus()), "nodeOf: cpu 8 out of range");
    EXPECT_DEATH(m.socketOf(m.numCpus()), "socketOf: cpu 8 out of range");
    EXPECT_DEATH(m.cpusOfCore(m.numCores()), "out of range");
    EXPECT_DEATH(m.cpusOfCcx(m.numCcxs()), "out of range");
    EXPECT_DEATH(m.cpusOfNode(m.numNodes()), "out of range");
    EXPECT_DEATH(m.cpusOfSocket(m.numSockets()), "out of range");
    EXPECT_DEATH(m.cpuListOfCcx(m.numCcxs()),
                 "cpuListOfCcx: ccx 2 out of range");
    EXPECT_DEATH(m.cpuListOfSocket(m.numSockets()),
                 "cpuListOfSocket: socket 1 out of range");
    EXPECT_DEATH(m.memLatencyNs(9, 0), "out of range");
}

TEST(MachineDeathTest, InvalidParamsFatal)
{
    MachineParams p = small8();
    p.threadsPerCore = 3;
    EXPECT_EXIT(Machine{p}, ::testing::ExitedWithCode(1),
                "threadsPerCore");
}

TEST(Presets, LookupByName)
{
    for (const auto &name : presetNames()) {
        const MachineParams p = presetByName(name);
        EXPECT_EQ(p.name, name);
    }
}

TEST(PresetsDeathTest, UnknownNameFatal)
{
    EXPECT_EXIT(presetByName("not-a-machine"),
                ::testing::ExitedWithCode(1), "unknown machine preset");
}

/** Ascending CPU list of a mask. */
std::vector<CpuId>
listOf(const CpuMask &mask)
{
    std::vector<CpuId> out;
    for (CpuId c : mask)
        out.push_back(c);
    return out;
}

/** Structural invariants that must hold for every machine. */
void
expectConsistentPartitions(const Machine &m)
{
    const MachineParams &p = m.params();

    // The lookup tables agree with the numbering convention: CPU c and
    // c + numCores() share core c % numCores(), and cores, CCXs and
    // nodes are numbered contiguously inside their parents.
    for (CpuId c = 0; c < m.numCpus(); ++c) {
        const CoreId core = c % m.numCores();
        EXPECT_EQ(m.coreOf(c), core);
        EXPECT_EQ(m.ccxOf(c), core / p.coresPerCcx);
        EXPECT_EQ(m.nodeOf(c), core / p.coresPerCcx / p.ccxsPerNode);
        EXPECT_EQ(m.socketOf(c), core / p.coresPerCcx / p.ccxsPerNode /
                                     p.nodesPerSocket);
        EXPECT_EQ(m.nodeOf(c), m.nodeOfCcx(m.ccxOf(c)));
        EXPECT_EQ(m.socketOf(c), m.socketOfNode(m.nodeOf(c)));
        EXPECT_TRUE(m.cpusOfCore(core).test(c));
    }
    for (CoreId core = 0; core < m.numCores(); ++core)
        EXPECT_EQ(m.cpusOfCore(core).count(), m.threadsPerCore());

    // The CPU lists are the masks, strictly ascending.
    for (CcxId x = 0; x < m.numCcxs(); ++x) {
        const std::vector<CpuId> &list = m.cpuListOfCcx(x);
        EXPECT_TRUE(std::adjacent_find(list.begin(), list.end(),
                                       std::greater_equal<>()) ==
                    list.end());
        EXPECT_EQ(list, listOf(m.cpusOfCcx(x)));
    }
    for (SocketId s = 0; s < m.numSockets(); ++s) {
        const std::vector<CpuId> &list = m.cpuListOfSocket(s);
        EXPECT_TRUE(std::adjacent_find(list.begin(), list.end(),
                                       std::greater_equal<>()) ==
                    list.end());
        EXPECT_EQ(list, listOf(m.cpusOfSocket(s)));
        for (CpuId c : list)
            EXPECT_EQ(m.socketOf(c), s);
    }

    // Every CPU belongs to exactly the structures its ids claim.
    CpuMask all_from_ccxs;
    for (CcxId x = 0; x < m.numCcxs(); ++x) {
        const CpuMask mask = m.cpusOfCcx(x);
        EXPECT_EQ(mask.count(), m.coresPerCcx() * m.threadsPerCore());
        EXPECT_FALSE(all_from_ccxs.intersects(mask)); // disjoint
        all_from_ccxs |= mask;
        for (CpuId c : mask)
            EXPECT_EQ(m.ccxOf(c), x);
    }
    EXPECT_EQ(all_from_ccxs, m.allCpus());

    CpuMask all_from_nodes;
    for (NodeId n = 0; n < m.numNodes(); ++n) {
        const CpuMask mask = m.cpusOfNode(n);
        EXPECT_FALSE(all_from_nodes.intersects(mask));
        all_from_nodes |= mask;
        for (CpuId c : mask)
            EXPECT_EQ(m.nodeOf(c), n);
    }
    EXPECT_EQ(all_from_nodes, m.allCpus());

    CpuMask all_from_sockets;
    for (SocketId s = 0; s < m.numSockets(); ++s)
        all_from_sockets |= m.cpusOfSocket(s);
    EXPECT_EQ(all_from_sockets, m.allCpus());

    // Sibling relation is an involution within the same core.
    for (CpuId c = 0; c < m.numCpus(); ++c) {
        const CpuId sib = m.siblingOf(c);
        if (m.threadsPerCore() == 1) {
            EXPECT_EQ(sib, kInvalidCpu);
        } else {
            EXPECT_NE(sib, c);
            EXPECT_EQ(m.siblingOf(sib), c);
            EXPECT_EQ(m.coreOf(sib), m.coreOf(c));
        }
    }

    // Primary threads cover each core exactly once.
    EXPECT_EQ(m.primaryThreads().count(), m.numCores());

    // Memory latency is symmetric and minimal on the diagonal.
    for (NodeId a = 0; a < m.numNodes(); ++a) {
        for (NodeId b = 0; b < m.numNodes(); ++b) {
            EXPECT_DOUBLE_EQ(m.memLatencyNs(a, b), m.memLatencyNs(b, a));
            EXPECT_GE(m.memLatencyNs(a, b), m.memLatencyNs(a, a));
        }
    }
}

class PresetInvariants : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PresetInvariants, PartitionsAreConsistent)
{
    expectConsistentPartitions(Machine(presetByName(GetParam())));
}

TEST(ClusterMachineInvariants, PartitionsAreConsistent)
{
    // Four rome128 sockets fill every word of a CpuMask.
    cluster::ClusterParams cp;
    cp.nodes = 4;
    cp.nodeMachine = rome128();
    const Machine m(cluster::clusterMachine(cp));
    EXPECT_EQ(m.numCpus(), kMaxCpus);
    EXPECT_EQ(m.numSockets(), 4u);
    expectConsistentPartitions(m);
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetInvariants,
                         ::testing::ValuesIn(presetNames()));

} // namespace
} // namespace microscale::topo
