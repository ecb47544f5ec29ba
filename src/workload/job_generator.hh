/**
 * @file
 * Factories for common job DAG shapes.
 *
 * The paper's examples: a single-task job (resource provisioning and
 * delay-timer studies), a two-stage web request (application server
 * then database query -- "spatial inter-dependence"), fan-out/fan-in
 * jobs (partition/aggregate services such as web search), and random
 * layered DAGs with per-edge flow sizes (server-network study, 100 MB
 * flows).
 */

#ifndef HOLDCSIM_WORKLOAD_JOB_GENERATOR_HH
#define HOLDCSIM_WORKLOAD_JOB_GENERATOR_HH

#include <memory>

#include "job.hh"
#include "service.hh"
#include "sim/random.hh"

namespace holdcsim {

/**
 * Produces Jobs on demand. A DataCenter numbers the jobs its pumps
 * make per plant, from 0 (makeJob(Tick, JobId)), so one plant's ids,
 * and the trace that names them, do not depend on what else the
 * process ran; several pumps of one plant share its count.
 * makeJob(Tick) draws from a process-wide counter instead, for
 * harnesses that submit jobs to a scheduler themselves.
 */
class JobGenerator
{
  public:
    virtual ~JobGenerator() = default;

    /** Build the next job, arriving at @p arrival. */
    Job makeJob(Tick arrival) { return buildJob(nextId(), arrival); }

    /**
     * Build a job with a caller-chosen id. Partitioned runs
     * (src/sim/pdes) use this with per-partition id namespaces: the
     * process-wide counter is thread-safe but hands out ids in
     * wall-clock interleaving order, which would differ run to run.
     */
    Job makeJob(Tick arrival, JobId id) { return buildJob(id, arrival); }

  protected:
    /** Construct the job DAG for (@p id, @p arrival). */
    virtual Job buildJob(JobId id, Tick arrival) = 0;

    /** Next process-globally-unique job id. */
    static JobId nextId();
};

/** One task per job (the paper's provisioning/delay-timer setup). */
class SingleTaskGenerator : public JobGenerator
{
  public:
    SingleTaskGenerator(std::shared_ptr<ServiceModel> service,
                        int task_type = 0);
    Job buildJob(JobId id, Tick arrival) override;

  private:
    std::shared_ptr<ServiceModel> _service;
    int _taskType;
};

/**
 * A sequential chain of @p length tasks (e.g. web tier -> database
 * tier), each stage with its own service model and type, and
 * @p transfer_bytes shipped between consecutive stages.
 */
class ChainJobGenerator : public JobGenerator
{
  public:
    ChainJobGenerator(std::vector<std::shared_ptr<ServiceModel>> stages,
                      std::vector<int> stage_types, Bytes transfer_bytes);
    Job buildJob(JobId id, Tick arrival) override;

  private:
    std::vector<std::shared_ptr<ServiceModel>> _stages;
    std::vector<int> _stageTypes;
    Bytes _transferBytes;
};

/**
 * Partition/aggregate: a root task fans out to @p width parallel
 * workers whose results feed one aggregator (the web-search shape).
 */
class FanOutInGenerator : public JobGenerator
{
  public:
    FanOutInGenerator(std::shared_ptr<ServiceModel> root_service,
                      std::shared_ptr<ServiceModel> worker_service,
                      std::shared_ptr<ServiceModel> agg_service,
                      unsigned width, Bytes transfer_bytes);
    Job buildJob(JobId id, Tick arrival) override;

  private:
    std::shared_ptr<ServiceModel> _rootService;
    std::shared_ptr<ServiceModel> _workerService;
    std::shared_ptr<ServiceModel> _aggService;
    unsigned _width;
    Bytes _transferBytes;
};

/**
 * Random layered DAG: @p layers layers of up to @p width tasks;
 * every task in layer k draws edges from random tasks in layer k-1
 * with probability @p edge_probability (at least one, so the graph
 * stays connected front-to-back). Used for the server-network joint
 * study with large per-edge flows.
 */
class RandomDagGenerator : public JobGenerator
{
  public:
    RandomDagGenerator(std::shared_ptr<ServiceModel> service,
                       unsigned layers, unsigned width,
                       double edge_probability, Bytes transfer_bytes,
                       Rng rng);
    Job buildJob(JobId id, Tick arrival) override;

  private:
    std::shared_ptr<ServiceModel> _service;
    unsigned _layers;
    unsigned _width;
    double _edgeProbability;
    Bytes _transferBytes;
    Rng _rng;
};

} // namespace holdcsim

#endif // HOLDCSIM_WORKLOAD_JOB_GENERATOR_HH
