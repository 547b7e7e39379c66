#include "comm/world.hpp"

#include <exception>
#include <iostream>
#include <mutex>
#include <thread>

#include "comm/comm.hpp"

namespace dlouvain::comm {

World::World(int size, const RunOptions& options) : options_(options) {
  if (size <= 0) throw std::invalid_argument("world size must be positive");
  metrics_ = options_.metrics;
  if (!metrics_) metrics_ = std::make_shared<util::MetricsRegistry>(size);
  if (metrics_->num_ranks() < size)
    throw std::invalid_argument("RunOptions::metrics registry smaller than world");
  trace_ = options_.trace;
  if (trace_ && trace_->num_ranks() < size)
    throw std::invalid_argument("RunOptions::trace store smaller than world");
  if (options_.retransmit_max < 0)
    throw std::invalid_argument("RunOptions::retransmit_max must be >= 0");
  if (options_.retransmit_backoff_ms <= 0 && options_.retransmit_max > 0)
    throw std::invalid_argument("RunOptions::retransmit_backoff_ms must be positive");
  health_ = std::make_unique<RankHealth[]>(static_cast<std::size_t>(size));
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r)
    mailboxes_.push_back(std::make_unique<Mailbox>(
        this, r, options_.timeout_seconds, options_.faults.get(),
        options_.retransmit_max, options_.retransmit_backoff_ms));
}

void World::abort_all() {
  for (auto& box : mailboxes_) box->abort();
}

std::string World::deadlock_report(Rank reporting) const {
  std::string report;
  for (std::size_t r = 0; r < mailboxes_.size(); ++r) {
    if (static_cast<Rank>(r) == reporting) continue;  // reporter printed itself
    report += "\n  " + mailboxes_[r]->status_line();
  }
  return report;
}

void run(int nranks, const std::function<void(Comm&)>& fn, const RunOptions& options) {
  World world(nranks, options);

  std::mutex error_mutex;
  std::exception_ptr first_error;

  // Record the first failure, say which rank failed, and release the others.
  // The stderr mutex is process-wide, so concurrent worlds never split a line.
  const auto fail = [&](const std::string& what) {
    {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
    {
      static std::mutex stderr_mutex;
      const std::lock_guard<std::mutex> lock(stderr_mutex);
      std::cerr << "[dlouvain ERROR] " << what << "; aborting world\n";
    }
    world.abort_all();
  };

  auto rank_main = [&](Rank rank) {
    Comm comm(world, rank);
    try {
      fn(comm);
    } catch (const WorldAborted&) {
      // Unwound because another rank failed; nothing to record.
    } catch (const std::exception& e) {
      fail("rank " + std::to_string(rank) + " failed (" + e.what() + ")");
    } catch (...) {
      fail("rank " + std::to_string(rank) + " threw");
    }
  };

  if (nranks == 1) {
    // Single-rank worlds run inline: cheaper, and keeps stack traces simple.
    rank_main(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nranks));
    for (Rank r = 0; r < nranks; ++r) threads.emplace_back(rank_main, r);
    for (auto& t : threads) t.join();
  }

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace dlouvain::comm
