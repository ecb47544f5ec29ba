/**
 * @file
 * Unit and property tests for job DAGs and job generators.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <vector>

#include "sim/logging.hh"
#include "workload/job.hh"
#include "workload/job_generator.hh"
#include "workload/service.hh"

using namespace holdcsim;

namespace {

/** The tasks of a Job index row, to compare against a vector. */
std::vector<TaskId>
vec(std::span<const TaskId> row)
{
    return {row.begin(), row.end()};
}

} // namespace

TEST(Job, SingleTask)
{
    Job job(1, 100);
    TaskId t = job.addTask(TaskSpec{5 * msec, 0, 1.0});
    job.validate();
    EXPECT_EQ(job.numTasks(), 1u);
    EXPECT_EQ(vec(job.rootTasks()), std::vector<TaskId>{t});
    EXPECT_TRUE(job.parents(t).empty());
    EXPECT_TRUE(job.children(t).empty());
    EXPECT_EQ(job.totalWork(), 5 * msec);
    EXPECT_EQ(job.arrivalTick(), 100u);
}

TEST(Job, ChainParentChildIndexes)
{
    Job job(2, 0);
    TaskId a = job.addTask(TaskSpec{1 * msec, 1, 1.0});
    TaskId b = job.addTask(TaskSpec{2 * msec, 2, 1.0});
    TaskId c = job.addTask(TaskSpec{3 * msec, 2, 1.0});
    job.addEdge(a, b, 1000);
    job.addEdge(b, c, 2000);
    job.validate();
    EXPECT_EQ(vec(job.rootTasks()), std::vector<TaskId>{a});
    EXPECT_EQ(vec(job.children(a)), std::vector<TaskId>{b});
    EXPECT_EQ(vec(job.parents(c)), std::vector<TaskId>{b});
    EXPECT_EQ(job.edgeBytes(a, b), 1000u);
    EXPECT_EQ(job.edgeBytes(b, c), 2000u);
    EXPECT_EQ(job.edgeBytes(a, c), 0u);
    EXPECT_EQ(job.totalWork(), 6 * msec);
}

TEST(Job, TopologicalOrderRespectsEdges)
{
    Job job(3, 0);
    // Diamond: a -> {b, c} -> d
    TaskId a = job.addTask(TaskSpec{1 * msec});
    TaskId b = job.addTask(TaskSpec{1 * msec});
    TaskId c = job.addTask(TaskSpec{1 * msec});
    TaskId d = job.addTask(TaskSpec{1 * msec});
    job.addEdge(a, b, 0);
    job.addEdge(a, c, 0);
    job.addEdge(b, d, 0);
    job.addEdge(c, d, 0);
    job.validate();
    auto order = job.topologicalOrder();
    ASSERT_EQ(order.size(), 4u);
    auto pos = [&](TaskId t) {
        return std::find(order.begin(), order.end(), t) - order.begin();
    };
    EXPECT_LT(pos(a), pos(b));
    EXPECT_LT(pos(a), pos(c));
    EXPECT_LT(pos(b), pos(d));
    EXPECT_LT(pos(c), pos(d));
}

TEST(Job, CycleDetected)
{
    Job job(4, 0);
    TaskId a = job.addTask(TaskSpec{1 * msec});
    TaskId b = job.addTask(TaskSpec{1 * msec});
    job.addEdge(a, b, 0);
    job.addEdge(b, a, 0);
    EXPECT_THROW(job.validate(), FatalError);
}

TEST(Job, StructuralErrorsDetected)
{
    {
        Job job(5, 0);
        EXPECT_THROW(job.validate(), FatalError); // no tasks
    }
    {
        Job job(6, 0);
        TaskId a = job.addTask(TaskSpec{1 * msec});
        job.addEdge(a, 7, 0); // out of range
        EXPECT_THROW(job.validate(), FatalError);
    }
    {
        Job job(7, 0);
        TaskId a = job.addTask(TaskSpec{1 * msec});
        job.addEdge(a, a, 0); // self edge
        EXPECT_THROW(job.validate(), FatalError);
    }
    {
        Job job(8, 0);
        TaskId a = job.addTask(TaskSpec{1 * msec});
        TaskId b = job.addTask(TaskSpec{1 * msec});
        job.addEdge(a, b, 0);
        job.addEdge(a, b, 0); // duplicate
        EXPECT_THROW(job.validate(), FatalError);
    }
}

TEST(Job, DuplicateEdgeFoundAcrossOtherParents)
{
    // The repeated edge is not adjacent to its twin in the edge list.
    Job job(10, 0);
    for (int i = 0; i < 4; ++i)
        job.addTask(TaskSpec{1 * msec});
    job.addEdge(0, 3, 0);
    job.addEdge(1, 3, 0);
    job.addEdge(2, 3, 0);
    job.addEdge(0, 3, 0);
    EXPECT_THROW(job.validate(), FatalError);
}

TEST(Job, CycleBehindARootDetected)
{
    // Task 0 is a root, so Kahn's walk starts, then stalls at 1-2-3.
    Job job(11, 0);
    for (int i = 0; i < 4; ++i)
        job.addTask(TaskSpec{1 * msec});
    job.addEdge(0, 1, 0);
    job.addEdge(1, 2, 0);
    job.addEdge(2, 3, 0);
    job.addEdge(3, 1, 0);
    EXPECT_THROW(job.validate(), FatalError);
}

TEST(Job, IndexMatchesEdgeListOnRandomDags)
{
    // Reference: parents, children and byte counts rebuilt from the
    // edge list in insertion order; roots are the parentless tasks.
    std::mt19937_64 rng(7);
    for (int round = 0; round < 200; ++round) {
        const auto n = static_cast<TaskId>(1 + rng() % 12);
        Job job(round, 0);
        for (TaskId t = 0; t < n; ++t)
            job.addTask(TaskSpec{1 * msec});
        std::vector<std::vector<TaskId>> parents(n), children(n);
        std::vector<std::vector<Bytes>> bytes(n);
        // Edges only run from lower to higher ids (acyclic), each
        // pair at most once, in a shuffled order.
        std::vector<TaskEdge> edges;
        for (TaskId a = 0; a < n; ++a) {
            for (TaskId b = a + 1; b < n; ++b) {
                if (rng() % 3 == 0)
                    edges.push_back(TaskEdge{a, b, rng() % 1000});
            }
        }
        std::shuffle(edges.begin(), edges.end(), rng);
        for (const TaskEdge &e : edges) {
            job.addEdge(e.from, e.to, e.bytes);
            parents[e.to].push_back(e.from);
            children[e.from].push_back(e.to);
            bytes[e.to].push_back(e.bytes);
        }
        job.validate();

        std::vector<TaskId> roots;
        for (TaskId t = 0; t < n; ++t) {
            ASSERT_EQ(vec(job.parents(t)), parents[t]) << round;
            ASSERT_EQ(vec(job.children(t)), children[t]) << round;
            std::span<const Bytes> pb = job.parentBytes(t);
            ASSERT_EQ(std::vector<Bytes>(pb.begin(), pb.end()), bytes[t]);
            if (parents[t].empty())
                roots.push_back(t);
        }
        ASSERT_EQ(vec(job.rootTasks()), roots) << round;
        for (const TaskEdge &e : edges)
            ASSERT_EQ(job.edgeBytes(e.from, e.to), e.bytes) << round;
        if (n > 1 && parents[n - 1].empty()) {
            ASSERT_EQ(job.edgeBytes(0, n - 1), 0u) << round;
        }

        // Every edge points forward in the topological order.
        std::vector<TaskId> order = job.topologicalOrder();
        ASSERT_EQ(order.size(), n);
        std::vector<std::size_t> pos(n);
        for (std::size_t i = 0; i < n; ++i)
            pos[order[i]] = i;
        for (const TaskEdge &e : edges)
            ASSERT_LT(pos[e.from], pos[e.to]) << round;
    }
}

TEST(Job, RejectsBadTaskSpecs)
{
    Job job(9, 0);
    EXPECT_THROW(job.addTask(TaskSpec{0, 0, 1.0}), FatalError);
    EXPECT_THROW(job.addTask(TaskSpec{1 * msec, 0, 1.5}), FatalError);
}

// --------------------------------------------------------------- generators

namespace {

std::shared_ptr<ServiceModel>
fixedSvc(Tick t)
{
    return std::make_shared<FixedService>(t);
}

} // namespace

TEST(JobGenerators, SingleTaskGenerator)
{
    SingleTaskGenerator gen(fixedSvc(5 * msec), 3);
    Job j0 = gen.makeJob(10);
    Job j1 = gen.makeJob(20);
    EXPECT_NE(j0.id(), j1.id());
    EXPECT_EQ(j0.numTasks(), 1u);
    EXPECT_EQ(j0.task(0).serviceTime, 5 * msec);
    EXPECT_EQ(j0.task(0).type, 3);
}

TEST(JobGenerators, ChainGeneratorShape)
{
    ChainJobGenerator gen({fixedSvc(2 * msec), fixedSvc(8 * msec)},
                          {1, 2}, 4096);
    Job j = gen.makeJob(0);
    EXPECT_EQ(j.numTasks(), 2u);
    EXPECT_EQ(j.numEdges(), 1u);
    EXPECT_EQ(j.rootTasks().size(), 1u);
    EXPECT_EQ(j.task(0).type, 1);
    EXPECT_EQ(j.task(1).type, 2);
    EXPECT_EQ(j.edgeBytes(0, 1), 4096u);
}

TEST(JobGenerators, FanOutInShape)
{
    FanOutInGenerator gen(fixedSvc(1 * msec), fixedSvc(4 * msec),
                          fixedSvc(2 * msec), 8, 1 << 20);
    Job j = gen.makeJob(0);
    EXPECT_EQ(j.numTasks(), 10u); // root + agg + 8 workers
    EXPECT_EQ(j.numEdges(), 16u);
    ASSERT_EQ(j.rootTasks().size(), 1u);
    TaskId root = j.rootTasks()[0];
    EXPECT_EQ(j.children(root).size(), 8u);
    // The aggregator is the only task with 8 parents.
    int aggs = 0;
    for (TaskId t = 0; t < j.numTasks(); ++t)
        aggs += j.parents(t).size() == 8;
    EXPECT_EQ(aggs, 1);
}

TEST(JobGenerators, RandomDagAlwaysValidAndConnected)
{
    RandomDagGenerator gen(fixedSvc(3 * msec), 4, 5, 0.3, 100 << 20,
                           Rng(13, "dag"));
    for (int i = 0; i < 50; ++i) {
        Job j = gen.makeJob(i);
        // validate() ran inside makeJob; check single root layer and
        // that every non-root task has at least one parent.
        EXPECT_EQ(j.rootTasks().size(), 1u);
        for (TaskId t = 0; t < j.numTasks(); ++t) {
            if (t != j.rootTasks()[0]) {
                EXPECT_GE(j.parents(t).size(), 1u);
            }
        }
        EXPECT_EQ(j.topologicalOrder().size(), j.numTasks());
    }
}

TEST(JobGenerators, JobIdsUniqueWithinGenerator)
{
    SingleTaskGenerator gen(fixedSvc(1 * msec));
    std::set<JobId> ids;
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(ids.insert(gen.makeJob(i).id()).second);
}
