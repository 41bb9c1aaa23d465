// Real threaded function executor: Dragon's native mode, in C++.
//
// The paper runs "in-memory Python functions" on warm Dragon workers; the
// C++ analogue is a pool of warm worker threads executing std::function
// tasks from a bounded MPMC queue, with futures for results. This is the
// execution engine the examples use to mix real function tasks with
// simulated executable workloads.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "dragon/mpmc_queue.hpp"

namespace flotilla::dragon {

class FunctionExecutor {
 public:
  // `workers` = warm worker threads; `queue_capacity` bounds the backlog
  // (submit blocks when full, providing natural backpressure).
  explicit FunctionExecutor(unsigned workers = 0,
                            std::size_t queue_capacity = 4096);
  ~FunctionExecutor();

  FunctionExecutor(const FunctionExecutor&) = delete;
  FunctionExecutor& operator=(const FunctionExecutor&) = delete;

  // Schedules `fn` and returns a future for its result. Throws
  // std::runtime_error if the executor was shut down.
  template <typename Fn, typename R = std::invoke_result_t<Fn>>
  std::future<R> submit(Fn fn) {
    // The task counts itself before its future is made ready, so a caller
    // that waited on the future reads a count that includes it.
    auto task = std::make_shared<std::packaged_task<R()>>(
        [this, fn = std::move(fn)]() mutable -> R {
          const CountOnExit count{executed_};
          return fn();
        });
    auto future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

  // Runs fn(i) for i in [0, n) across the pool and waits for completion.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  // Drains queued work, then joins the workers. Idempotent.
  void shutdown();

  unsigned worker_count() const { return static_cast<unsigned>(threads_.size()); }
  std::uint64_t tasks_executed() const {
    return executed_.load(std::memory_order_relaxed);
  }

 private:
  struct CountOnExit {
    std::atomic<std::uint64_t>& executed;
    ~CountOnExit() { executed.fetch_add(1, std::memory_order_relaxed); }
  };

  void enqueue(std::function<void()> job);
  void worker_loop();

  MpmcQueue<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<bool> down_{false};
};

}  // namespace flotilla::dragon
