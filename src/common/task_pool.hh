/**
 * @file
 * Fixed-size worker pool for the heavy analysis paths.
 *
 * The sweeps behind Figures 3-5 / Table 1 replay one trace through a
 * bank of independent PersistTimingEngine instances, and the explorer
 * (src/explore/) shards a decision-prefix work queue; both are
 * embarrassingly parallel at the granularity of one task. TaskPool
 * gives them one runtime: a fixed set of OS worker threads, a
 * submit/wait API whose tasks may themselves submit subtasks
 * (recursive decomposition), and a parallelFor convenience for flat
 * index ranges.
 *
 * Scheduling is LIFO: the newest submitted task runs first. For
 * recursive workloads (the explorer's DFS over decision prefixes)
 * this keeps the traversal depth-first-ish and the queue small; for
 * flat parallelFor ranges the order is irrelevant.
 *
 * Error handling: a task that throws does not kill its worker. The
 * first exception is captured and rethrown from the owner's wait()
 * (or parallelFor()); later exceptions of the same batch are dropped.
 *
 * wait() must be called from outside the pool: a worker blocking on
 * the pool it serves can deadlock it. parallelFor() is nest-safe: a
 * caller running *inside* a pool task helps execute queued tasks
 * while its batch is outstanding instead of parking the worker, so
 * a trace's compile prep can fan out from within a bench's
 * per-series parallelFor on the same pool.
 */

#ifndef PERSIM_COMMON_TASK_POOL_HH
#define PERSIM_COMMON_TASK_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace persim {

/** Fixed worker pool with submit/wait and parallel-for. */
class TaskPool
{
  public:
    using Task = std::function<void()>;

    /** Start @p workers threads (0 = one per hardware thread). */
    explicit TaskPool(std::uint32_t workers = 0);

    /** Drains every queued task, then joins the workers. */
    ~TaskPool();

    TaskPool(const TaskPool &) = delete;
    TaskPool &operator=(const TaskPool &) = delete;

    /** Number of worker threads. */
    std::uint32_t workerCount() const { return workers_; }

    /**
     * Enqueue a task. Thread-safe; in particular a running task may
     * submit follow-up work to its own pool.
     */
    void submit(Task task);

    /**
     * Block until every submitted task (including tasks submitted by
     * tasks) has finished, then rethrow the first captured task
     * exception, if any. Owner thread only — never call from a task.
     */
    void wait();

    /**
     * Run body(i) for every i in [0, n) on the pool and wait for the
     * batch; rethrows the first exception a body raised. Independent
     * of submit()/wait() bookkeeping errors-wise: a concurrent
     * submit()'s failure is not reported here. Safe to call from
     * inside a pool task: the caller help-executes queued tasks
     * (possibly from unrelated batches) until its own batch is done.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /** Hardware concurrency, never less than 1. */
    static std::uint32_t defaultWorkers();

  private:
    void workerLoop();

    std::uint32_t workers_ = 0;
    std::vector<std::thread> threads_;

    std::mutex mutex_;
    std::condition_variable work_cv_; //!< Queued work or stop.
    std::condition_variable done_cv_; //!< pending_ reached zero.
    std::vector<Task> queue_;         //!< LIFO: back runs first.
    std::size_t pending_ = 0;         //!< Queued + running tasks.
    std::exception_ptr error_;        //!< First submit()-task failure.
    bool stop_ = false;
};

} // namespace persim

#endif // PERSIM_COMMON_TASK_POOL_HH
