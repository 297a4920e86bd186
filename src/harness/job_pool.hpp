// The harness's worker pool for independent sweep / scenario points.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mlid {

/// Worker threads for `jobs` independent jobs: `requested`, where 0 means
/// the hardware concurrency, capped at the job count.
[[nodiscard]] inline unsigned resolve_job_threads(unsigned requested,
                                                  std::size_t jobs) {
  unsigned threads = requested;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  return static_cast<unsigned>(std::min<std::size_t>(threads, jobs));
}

/// Runs job(i) for every i in [0, count) on `threads` workers claiming
/// indices from an atomic cursor (points differ wildly in cost); `threads`
/// <= 1 runs inline.  The first exception a job throws stops the hand-out
/// and is rethrown on the caller once every worker has joined.
inline void run_jobs(std::size_t count, unsigned threads,
                     const std::function<void(std::size_t)>& job) {
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;
  auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        job(i);
      } catch (...) {
        const std::scoped_lock lock(error_mu);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace mlid
