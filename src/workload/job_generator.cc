#include "job_generator.hh"

#include <atomic>

#include "sim/logging.hh"

namespace holdcsim {

JobId
JobGenerator::nextId()
{
    static std::atomic<JobId> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

// -------------------------------------------------------- SingleTaskGenerator

SingleTaskGenerator::SingleTaskGenerator(
    std::shared_ptr<ServiceModel> service, int task_type)
    : _service(std::move(service)), _taskType(task_type)
{
    if (!_service)
        fatal("SingleTaskGenerator needs a service model");
}

Job
SingleTaskGenerator::buildJob(JobId id, Tick arrival)
{
    Job job(id, arrival);
    job.reserve(1, 0);
    job.addTask(TaskSpec{_service->sample(), _taskType, 1.0});
    job.validate();
    return job;
}

// --------------------------------------------------------- ChainJobGenerator

ChainJobGenerator::ChainJobGenerator(
    std::vector<std::shared_ptr<ServiceModel>> stages,
    std::vector<int> stage_types, Bytes transfer_bytes)
    : _stages(std::move(stages)), _stageTypes(std::move(stage_types)),
      _transferBytes(transfer_bytes)
{
    if (_stages.empty())
        fatal("ChainJobGenerator needs at least one stage");
    if (_stageTypes.size() != _stages.size())
        fatal("ChainJobGenerator: one type per stage required");
}

Job
ChainJobGenerator::buildJob(JobId id, Tick arrival)
{
    Job job(id, arrival);
    job.reserve(_stages.size(), _stages.size() - 1);
    TaskId prev = 0;
    for (std::size_t s = 0; s < _stages.size(); ++s) {
        TaskId t = job.addTask(
            TaskSpec{_stages[s]->sample(), _stageTypes[s], 1.0});
        if (s > 0)
            job.addEdge(prev, t, _transferBytes);
        prev = t;
    }
    job.validate();
    return job;
}

// ---------------------------------------------------------- FanOutInGenerator

FanOutInGenerator::FanOutInGenerator(
    std::shared_ptr<ServiceModel> root_service,
    std::shared_ptr<ServiceModel> worker_service,
    std::shared_ptr<ServiceModel> agg_service, unsigned width,
    Bytes transfer_bytes)
    : _rootService(std::move(root_service)),
      _workerService(std::move(worker_service)),
      _aggService(std::move(agg_service)), _width(width),
      _transferBytes(transfer_bytes)
{
    if (!_rootService || !_workerService || !_aggService)
        fatal("FanOutInGenerator needs three service models");
    if (_width == 0)
        fatal("FanOutInGenerator needs width >= 1");
}

Job
FanOutInGenerator::buildJob(JobId id, Tick arrival)
{
    Job job(id, arrival);
    job.reserve(_width + 2, 2 * std::size_t{_width});
    TaskId root = job.addTask(TaskSpec{_rootService->sample(), 0, 1.0});
    TaskId agg = job.addTask(TaskSpec{_aggService->sample(), 0, 1.0});
    for (unsigned w = 0; w < _width; ++w) {
        TaskId worker =
            job.addTask(TaskSpec{_workerService->sample(), 0, 1.0});
        job.addEdge(root, worker, _transferBytes);
        job.addEdge(worker, agg, _transferBytes);
    }
    job.validate();
    return job;
}

// --------------------------------------------------------- RandomDagGenerator

RandomDagGenerator::RandomDagGenerator(
    std::shared_ptr<ServiceModel> service, unsigned layers,
    unsigned width, double edge_probability, Bytes transfer_bytes,
    Rng rng)
    : _service(std::move(service)), _layers(layers), _width(width),
      _edgeProbability(edge_probability),
      _transferBytes(transfer_bytes), _rng(rng)
{
    if (!_service)
        fatal("RandomDagGenerator needs a service model");
    if (_layers == 0 || _width == 0)
        fatal("RandomDagGenerator needs layers >= 1, width >= 1");
    if (edge_probability < 0.0 || edge_probability > 1.0)
        fatal("edge probability must be in [0, 1]");
}

Job
RandomDagGenerator::buildJob(JobId id, Tick arrival)
{
    Job job(id, arrival);
    std::vector<std::vector<TaskId>> layer_tasks(_layers);
    for (unsigned l = 0; l < _layers; ++l) {
        unsigned count =
            l == 0 ? 1
                   : static_cast<unsigned>(_rng.uniformInt(1, _width));
        for (unsigned i = 0; i < count; ++i) {
            layer_tasks[l].push_back(
                job.addTask(TaskSpec{_service->sample(), 0, 1.0}));
        }
    }
    for (unsigned l = 1; l < _layers; ++l) {
        for (TaskId t : layer_tasks[l]) {
            bool connected = false;
            for (TaskId p : layer_tasks[l - 1]) {
                if (_rng.bernoulli(_edgeProbability)) {
                    job.addEdge(p, t, _transferBytes);
                    connected = true;
                }
            }
            if (!connected) {
                // Guarantee front-to-back connectivity.
                const auto &prev = layer_tasks[l - 1];
                TaskId p =
                    prev[_rng.uniformInt(0, prev.size() - 1)];
                job.addEdge(p, t, _transferBytes);
            }
        }
    }
    job.validate();
    return job;
}

} // namespace holdcsim
