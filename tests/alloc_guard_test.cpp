// Allocation guard for the simulator's per-item service path.
//
// This binary replaces the global operator new with a counting one, so it
// can assert that a warm sim::Server runs submit/complete cycles without
// touching the heap: the completion event must fit Callback's inline
// buffer and the server's slot table must be reused, not regrown.
//
// Sanitizer builds (-DFLOTILLA_SANITIZE=...) skip it: there the sanitizer
// runtime owns operator new, and replacing it would blind the sanitizer.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/engine.hpp"
#include "sim/server.hpp"

namespace {

bool g_counting = false;
std::uint64_t g_allocations = 0;

#ifdef FLOTILLA_SANITIZED
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;

void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_counting) ++g_allocations;
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
#endif

}  // namespace

#ifndef FLOTILLA_SANITIZED
void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif

namespace flotilla::sim {
namespace {

constexpr const char* kSanitizedReason =
    "the sanitizer runtime owns operator new, so the counting replacement "
    "is compiled out";

// Heap allocations made by `body`.
template <typename F>
std::uint64_t allocations_in(F&& body) {
  g_allocations = 0;
  g_counting = true;
  body();
  g_counting = false;
  return g_allocations;
}

constexpr int kCycles = 10'000;

// Submits `batch` items (no more than the server's parallelism, so each
// starts at once) and runs them to completion.
void cycle(Engine& engine, Server& server, int batch, int& completed) {
  for (int i = 0; i < batch; ++i) {
    server.submit(1.0e-3, [&completed] { ++completed; });
  }
  engine.run();
}

void expect_warm_cycles_allocate_nothing(int parallelism) {
  Engine engine;
  Server server(engine, parallelism);
  int completed = 0;
  // Warm-up grows the engine's calendar and the server's slot table to
  // their steady-state sizes.
  for (int i = 0; i < 8; ++i) cycle(engine, server, parallelism, completed);
  const std::uint64_t allocations = allocations_in([&] {
    for (int i = 0; i < kCycles; ++i) {
      cycle(engine, server, parallelism, completed);
    }
  });
  EXPECT_EQ(allocations, 0u) << "parallelism " << parallelism;
  EXPECT_EQ(completed, (kCycles + 8) * parallelism);
  EXPECT_TRUE(server.idle());
}

TEST(AllocGuard, CounterSeesABoxedCallback) {
  if (kSanitized) GTEST_SKIP() << kSanitizedReason;
  // A capture larger than the inline buffer is boxed: proves the counter
  // is live, so a zero below means something.
  struct Big {
    unsigned char bytes[Callback::kInlineSize + 8] = {};
  };
  const std::uint64_t allocations = allocations_in([] {
    Callback boxed([big = Big{}] { (void)big; });
    (void)boxed;
  });
  EXPECT_EQ(allocations, 1u);
}

TEST(AllocGuard, WarmSerialServerAllocatesNothing) {
  if (kSanitized) GTEST_SKIP() << kSanitizedReason;
  expect_warm_cycles_allocate_nothing(1);
}

TEST(AllocGuard, WarmParallelServerAllocatesNothing) {
  if (kSanitized) GTEST_SKIP() << kSanitizedReason;
  expect_warm_cycles_allocate_nothing(4);
}

}  // namespace
}  // namespace flotilla::sim
