#include "dragon/function_executor.hpp"

#include <algorithm>
#include <stdexcept>

namespace flotilla::dragon {

FunctionExecutor::FunctionExecutor(unsigned workers,
                                   std::size_t queue_capacity)
    : queue_(queue_capacity) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

FunctionExecutor::~FunctionExecutor() { shutdown(); }

void FunctionExecutor::enqueue(std::function<void()> job) {
  if (down_.load(std::memory_order_acquire) || !queue_.push(std::move(job))) {
    throw std::runtime_error("FunctionExecutor is shut down");
  }
}

void FunctionExecutor::worker_loop() {
  while (auto job = queue_.pop()) (*job)();
}

void FunctionExecutor::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(submit([&fn, i] { fn(i); }));
  }
  for (auto& future : futures) future.get();
}

void FunctionExecutor::shutdown() {
  bool expected = false;
  if (!down_.compare_exchange_strong(expected, true)) return;
  queue_.close();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

}  // namespace flotilla::dragon
