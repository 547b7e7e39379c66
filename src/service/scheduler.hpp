// Job scheduling for the long-lived clustering service (dlouvaind; see
// docs/SERVICE.md). Deliberately transport-free: the endpoint hands decoded
// requests in and writes the replies out; everything between -- admission,
// the bounded FIFO queue, the worker pool, the LRU result cache, in-flight
// de-duplication, named streaming sessions, and the drain contract -- lives
// here, so tests drive it without a socket.
//
// Cache key: (graph fingerprint, config fingerprint, ranks). The config
// fingerprint is core::config_fingerprint, which hashes every DistConfig
// field that influences the trajectory of a run -- and deliberately
// EXCLUDES the rank count (that exclusion is what makes shrink-resume
// work), so the key adds `ranks` explicitly: the distributed engine's
// results depend on it. `threads` stays excluded on purpose -- the
// determinism contract makes results thread-count-invariant, so jobs
// differing only in thread count share a cache line.
//
// In-flight de-duplication: the first submitter of a key becomes the
// leader and computes; identical submissions that arrive while the leader
// is queued or running become waiters on the same slot and are counted as
// cache hits -- N parallel identical jobs cost exactly 1 computation and
// produce N byte-identical manifests (modulo each response's own "service"
// section; test_service pins this).
//
// Drain contract: drain() stops admission (new submissions get an
// immediate kError "draining" reply -- still a reply; no request is ever
// left without a response), lets the workers finish every queued and
// running job, fulfils every waiter, closes resident sessions, and
// freezes the counters for final_manifest(). Idempotent.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/metrics.hpp"
#include "dlouvain.hpp"
#include "service/protocol.hpp"

namespace dlouvain::service {

/// Admission limits and sizing. Defaults suit the test harness; the CLI
/// exposes each as a flag.
struct SchedulerOptions {
  int workers{2};            ///< concurrent job executions
  std::size_t max_queue{64};     ///< queued-but-not-running bound (admission)
  std::size_t cache_capacity{32};  ///< LRU result-cache entries
  /// Per-job thread limit (admission): bounds the rank count and the job's
  /// threads, ranks x threads (each rank is one thread plus threads - 1
  /// pool workers); both are admitted in [1, max_ranks].
  int max_ranks{64};
  /// Per-job graph size limit (admission): bounds both the edge count and
  /// the vertex count, which is admitted in [0, max_edges].
  std::int64_t max_edges{50'000'000};
};

/// One reply, ready for the endpoint to frame: a manifest (kManifest), a
/// service manifest (kStatsReply) or a one-line error (kError).
struct Reply {
  FrameType type{FrameType::kError};
  std::string body;
};

class JobScheduler {
 public:
  explicit JobScheduler(SchedulerOptions opts = {});
  ~JobScheduler();
  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Admit one clustering job. Always returns a future that WILL be
  /// fulfilled: with kManifest on success (run manifest + "service"
  /// section), with kError on refusal (queue full, limits, invalid plan,
  /// draining) or compute failure. Identical jobs de-duplicate (see file
  /// comment).
  std::future<Reply> submit(JobRequest req);

  /// Converge `req` and keep the Session resident under req.session_name
  /// (which must be non-empty and not in use). The reply manifest reflects
  /// the initial convergence. Session jobs are never cached.
  std::future<Reply> open_session(JobRequest req);

  /// Apply an EdgeBatch to a named resident session and reply with the
  /// post-update manifest. Updates to the same session serialize in
  /// admission order.
  std::future<Reply> update_session(UpdateRequest req);

  /// Drop a named resident session; replies kStatsReply with the current
  /// service manifest as an acknowledgement.
  std::future<Reply> close_session(const std::string& name);

  /// Current service counters (job_id = -1: daemon-wide view).
  core::ServiceTelemetry stats();

  /// Stop admission, finish every queued and running job, fulfil every
  /// waiter, drop resident sessions. Idempotent; blocks until quiescent.
  void drain();

  /// The daemon's final "dlouvain-service-manifest/1" document (call after
  /// drain(); before it, a live snapshot).
  std::string final_manifest();

 private:
  struct Job;
  struct ResidentSession;

  void worker_loop();
  void execute(const std::shared_ptr<Job>& job);
  Reply run_compute(Job& job);
  std::future<Reply> admit(std::shared_ptr<Job> job);
  std::future<Reply> reject_now(const std::string& message);
  core::ServiceTelemetry snapshot_locked(std::int64_t job_id, bool cache_hit);
  void cache_put_locked(std::uint64_t key, std::string manifest);
  std::string* cache_get_locked(std::uint64_t key);
  static std::string splice_service(std::string manifest, const core::ServiceTelemetry& t);

  SchedulerOptions opts_;

  std::mutex mu_;
  std::condition_variable cv_work_;   ///< workers wait: queue non-empty or stopping
  std::condition_variable cv_drain_;  ///< drain() waits: queue empty and idle workers
  std::deque<std::shared_ptr<Job>> queue_;
  int running_{0};        ///< jobs currently executing on workers
  bool draining_{false};  ///< admission closed
  bool stopping_{false};  ///< workers told to exit once the queue is empty
  bool drained_{false};   ///< drain() completed (freezes final_manifest)

  /// LRU result cache: key -> raw run manifest (no "service" section).
  std::list<std::pair<std::uint64_t, std::string>> lru_;
  std::unordered_map<std::uint64_t,
                     std::list<std::pair<std::uint64_t, std::string>>::iterator>
      cache_;
  /// In-flight de-duplication: cacheable keys admitted but not yet cached.
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> inflight_;

  /// Named resident sessions. The per-session mutex serializes updates when
  /// two workers pick up jobs against the same session.
  std::unordered_map<std::string, std::shared_ptr<ResidentSession>> sessions_;

  std::int64_t next_job_id_{0};
  std::int64_t jobs_served_{0};
  std::int64_t cache_hits_{0};
  std::int64_t cache_misses_{0};
  std::int64_t rejected_{0};
  std::string drain_state_{"none"};

  std::vector<std::thread> workers_;
};

}  // namespace dlouvain::service
