#include "service/scheduler.hpp"

#include <cstring>
#include <string>
#include <utility>

#include "core/checkpoint.hpp"
#include "util/prng.hpp"

namespace dlouvain::service {

namespace {

/// 64-bit fingerprint of an inline graph: n folded with every (src, dst,
/// weight-bits) triple in request order. Clients ship canonical_edges()
/// normal form, so equal graphs hash equal regardless of which CSR they
/// came from.
std::uint64_t graph_fingerprint(VertexId n, const std::vector<Edge>& edges) {
  std::uint64_t h = util::hash_combine(0x646c7376'67726170ULL,  // "dlsvgrap"
                                       static_cast<std::uint64_t>(n));
  for (const Edge& e : edges) {
    std::uint64_t wbits;
    std::memcpy(&wbits, &e.weight, sizeof wbits);
    h = util::hash_combine(h, static_cast<std::uint64_t>(e.src));
    h = util::hash_combine(h, static_cast<std::uint64_t>(e.dst));
    h = util::hash_combine(h, wbits);
  }
  return h;
}

/// The Plan a JobConfig describes. The caller validates `variant` first.
Plan make_plan(const JobConfig& c) {
  return Plan::distributed(c.ranks)
      .threads(c.threads)
      .variant(static_cast<Variant>(c.variant))
      .alpha(c.alpha)
      .threshold(c.threshold)
      .resolution(c.resolution)
      .seed(c.seed)
      .max_phases(c.max_phases)
      .max_iterations(c.max_iterations);
}

/// Why `req` falls outside the per-job envelope, or "" when it does not.
/// The vertex count is held to the edge limit: it is paid for in per-vertex
/// arrays (CSR offsets, then every rank's slice) before any edge is read.
std::string envelope_error(const JobRequest& req, const SchedulerOptions& opts) {
  if (req.config.ranks < 1 || req.config.ranks > opts.max_ranks)
    return "ranks " + std::to_string(req.config.ranks) + " outside the service limit [1, " +
           std::to_string(opts.max_ranks) + "]";
  // Each rank runs one thread plus threads - 1 pool workers, and a
  // threads <= 0 would mean one per core on every rank.
  const std::int64_t job_threads = std::int64_t{req.config.ranks} * req.config.threads;
  if (job_threads < 1 || job_threads > opts.max_ranks)
    return "ranks " + std::to_string(req.config.ranks) + " x threads " +
           std::to_string(req.config.threads) + " outside the service limit [1, " +
           std::to_string(opts.max_ranks) + "] threads per job";
  if (static_cast<std::int64_t>(req.edges.size()) > opts.max_edges)
    return "graph of " + std::to_string(req.edges.size()) +
           " edges exceeds the service limit of " + std::to_string(opts.max_edges);
  if (req.num_vertices < 0 || req.num_vertices > opts.max_edges)
    return "graph of " + std::to_string(req.num_vertices) +
           " vertices exceeds the service limit [0, " + std::to_string(opts.max_edges) + "]";
  if (req.config.variant > 3) return "unknown variant " + std::to_string(req.config.variant);
  try {
    make_plan(req.config).validate();
  } catch (const PlanError& e) {
    return std::string("invalid plan: ") + e.what();
  }
  return {};
}

/// The result-cache key of a request inside the envelope: its graph, its
/// plan's config fingerprint and its rank count.
std::uint64_t cache_key(const JobRequest& req) {
  return util::hash_combine(
      util::hash_combine(graph_fingerprint(req.num_vertices, req.edges),
                         core::config_fingerprint(make_plan(req.config).dist_config())),
      static_cast<std::uint64_t>(req.config.ranks));
}

std::future<Reply> ready_reply(Reply r) {
  std::promise<Reply> p;
  auto f = p.get_future();
  p.set_value(std::move(r));
  return f;
}

}  // namespace

/// A resident named streaming session. `mu` serializes the open and every
/// update; `ready` flips once the open job settled (updates admitted while
/// the open is still queued/running wait on `cv`).
struct JobScheduler::ResidentSession {
  std::mutex mu;
  std::condition_variable cv;
  enum class State { kPending, kReady, kFailed } state{State::kPending};
  std::optional<dlouvain::Session> session;
  std::string failure;  ///< why state == kFailed
};

struct JobScheduler::Job {
  enum class Kind { kCompute, kOpen, kUpdate, kClose };
  Kind kind{Kind::kCompute};
  JobRequest req;     ///< kCompute / kOpen
  UpdateRequest upd;  ///< kUpdate
  std::string close_name;  ///< kClose
  std::uint64_t key{0};
  bool cacheable{false};
  std::int64_t job_id{-1};
  std::promise<Reply> promise;
  /// Identical submissions that attached while this (leader) job was in
  /// flight; each carries its own admission id.
  std::vector<std::pair<std::int64_t, std::promise<Reply>>> waiters;
  std::shared_ptr<ResidentSession> session;  ///< kOpen / kUpdate
};

JobScheduler::JobScheduler(SchedulerOptions opts) : opts_(opts) {
  if (opts_.workers < 1) opts_.workers = 1;
  workers_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

JobScheduler::~JobScheduler() {
  drain();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

core::ServiceTelemetry JobScheduler::snapshot_locked(std::int64_t job_id, bool cache_hit) {
  core::ServiceTelemetry t;
  t.job_id = job_id;
  t.cache_hit = cache_hit;
  t.queue_depth = static_cast<std::int64_t>(queue_.size());
  t.jobs_served = jobs_served_;
  t.cache_hits = cache_hits_;
  t.cache_misses = cache_misses_;
  t.rejected = rejected_;
  t.sessions_open = static_cast<std::int64_t>(sessions_.size());
  t.drain = drain_state_;
  return t;
}

std::string JobScheduler::splice_service(std::string manifest,
                                         const core::ServiceTelemetry& t) {
  std::string svc = ",\"service\":";
  core::append_service_json(svc, t);
  // Every manifest is one JSON object; grow it in place before the closing
  // brace so all responses for one cached result share a byte-identical
  // prefix up to the ","service"" key.
  manifest.insert(manifest.size() - 1, svc);
  return manifest;
}

std::string* JobScheduler::cache_get_locked(std::uint64_t key) {
  auto it = cache_.find(key);
  if (it == cache_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // most-recently-used first
  return &it->second->second;
}

void JobScheduler::cache_put_locked(std::uint64_t key, std::string manifest) {
  if (auto it = cache_.find(key); it != cache_.end()) {
    it->second->second = std::move(manifest);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(manifest));
  cache_[key] = lru_.begin();
  while (cache_.size() > opts_.cache_capacity) {
    cache_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

std::future<Reply> JobScheduler::reject_now(const std::string& message) {
  ++rejected_;
  return ready_reply(Reply{FrameType::kError, message});
}

std::future<Reply> JobScheduler::admit(std::shared_ptr<Job> job) {
  auto f = job->promise.get_future();
  queue_.push_back(std::move(job));
  cv_work_.notify_one();
  return f;
}

std::future<Reply> JobScheduler::submit(JobRequest req) {
  // The per-request work -- the envelope check and the cache key, which
  // hashes every edge -- reads only the request and opts_ (fixed after
  // construction), so it runs before the lock. The verdicts below keep
  // their order: a draining service answers "draining" first.
  const std::string error = envelope_error(req, opts_);
  const std::uint64_t key = error.empty() ? cache_key(req) : 0;

  std::lock_guard<std::mutex> lk(mu_);
  if (draining_) return reject_now("draining: the service is shutting down");
  if (!error.empty()) return reject_now(error);
  const std::int64_t id = next_job_id_++;

  if (std::string* cached = cache_get_locked(key)) {
    ++cache_hits_;
    ++jobs_served_;
    return ready_reply(Reply{FrameType::kManifest,
                             splice_service(*cached, snapshot_locked(id, true))});
  }
  if (auto it = inflight_.find(key); it != inflight_.end()) {
    ++cache_hits_;  // will be served from the leader's result
    it->second->waiters.emplace_back(id, std::promise<Reply>());
    return it->second->waiters.back().second.get_future();
  }
  if (queue_.size() >= opts_.max_queue)
    return reject_now("queue full (" + std::to_string(queue_.size()) + " jobs)");

  ++cache_misses_;
  auto job = std::make_shared<Job>();
  job->kind = Job::Kind::kCompute;
  job->req = std::move(req);
  job->key = key;
  job->cacheable = true;
  job->job_id = id;
  inflight_[key] = job;
  return admit(std::move(job));
}

std::future<Reply> JobScheduler::open_session(JobRequest req) {
  const std::string error = envelope_error(req, opts_);  // before the lock, as in submit
  std::lock_guard<std::mutex> lk(mu_);
  if (draining_) return reject_now("draining: the service is shutting down");
  if (req.session_name.empty())
    return reject_now("open-session requires a non-empty session name");
  if (sessions_.count(req.session_name))
    return reject_now("session '" + req.session_name + "' already exists");
  if (!error.empty()) return reject_now(error);
  if (queue_.size() >= opts_.max_queue)
    return reject_now("queue full (" + std::to_string(queue_.size()) + " jobs)");

  auto job = std::make_shared<Job>();
  job->kind = Job::Kind::kOpen;
  job->session = std::make_shared<ResidentSession>();
  sessions_[req.session_name] = job->session;
  job->req = std::move(req);
  job->job_id = next_job_id_++;
  return admit(std::move(job));
}

std::future<Reply> JobScheduler::update_session(UpdateRequest req) {
  std::lock_guard<std::mutex> lk(mu_);
  if (draining_) return reject_now("draining: the service is shutting down");
  auto it = sessions_.find(req.session_name);
  if (it == sessions_.end())
    return reject_now("no session named '" + req.session_name + "'");
  if (queue_.size() >= opts_.max_queue)
    return reject_now("queue full (" + std::to_string(queue_.size()) + " jobs)");

  auto job = std::make_shared<Job>();
  job->kind = Job::Kind::kUpdate;
  job->session = it->second;
  job->upd = std::move(req);
  job->job_id = next_job_id_++;
  return admit(std::move(job));
}

std::future<Reply> JobScheduler::close_session(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  if (draining_) return reject_now("draining: the service is shutting down");
  auto it = sessions_.find(name);
  if (it == sessions_.end())
    return reject_now("no session named '" + name + "'");
  if (queue_.size() >= opts_.max_queue)
    return reject_now("queue full (" + std::to_string(queue_.size()) + " jobs)");

  auto job = std::make_shared<Job>();
  job->kind = Job::Kind::kClose;
  job->close_name = name;
  job->job_id = next_job_id_++;
  return admit(std::move(job));
}

core::ServiceTelemetry JobScheduler::stats() {
  std::lock_guard<std::mutex> lk(mu_);
  return snapshot_locked(-1, false);
}

std::string JobScheduler::final_manifest() {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out = "{\"schema\":\"dlouvain-service-manifest/1\",\"service\":";
  core::append_service_json(out, snapshot_locked(-1, false));
  out += '}';
  return out;
}

void JobScheduler::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  if (drained_) return;
  draining_ = true;
  cv_drain_.wait(lk, [this] { return queue_.empty() && running_ == 0; });
  sessions_.clear();
  drain_state_ = "clean";
  drained_ = true;
}

void JobScheduler::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    execute(job);
    {
      std::lock_guard<std::mutex> lk(mu_);
      --running_;
      if (queue_.empty() && running_ == 0) cv_drain_.notify_all();
    }
  }
}

Reply JobScheduler::run_compute(Job& job) {
  try {
    const graph::Csr g = graph::from_edges(job.req.num_vertices, job.req.edges);
    const Result result = make_plan(job.req.config).run(g);
    return Reply{FrameType::kManifest, result.to_json()};
  } catch (const std::exception& e) {
    return Reply{FrameType::kError, std::string("job failed: ") + e.what()};
  }
}

void JobScheduler::execute(const std::shared_ptr<Job>& job) {
  switch (job->kind) {
    case Job::Kind::kCompute: {
      Reply raw = run_compute(*job);
      std::lock_guard<std::mutex> lk(mu_);
      inflight_.erase(job->key);
      if (raw.type == FrameType::kManifest) {
        cache_put_locked(job->key, raw.body);
        ++jobs_served_;
        job->promise.set_value(Reply{
            FrameType::kManifest,
            splice_service(raw.body, snapshot_locked(job->job_id, false))});
        for (auto& [wid, wp] : job->waiters) {
          ++jobs_served_;
          wp.set_value(Reply{FrameType::kManifest,
                             splice_service(raw.body, snapshot_locked(wid, true))});
        }
      } else {
        ++jobs_served_;
        job->promise.set_value(raw);
        for (auto& [wid, wp] : job->waiters) {
          (void)wid;
          ++jobs_served_;
          wp.set_value(raw);
        }
      }
      break;
    }
    case Job::Kind::kOpen: {
      Reply reply;
      {
        std::unique_lock<std::mutex> slk(job->session->mu);
        try {
          const graph::Csr g = graph::from_edges(job->req.num_vertices, job->req.edges);
          job->session->session.emplace(make_plan(job->req.config).open(g));
          job->session->state = ResidentSession::State::kReady;
          reply = Reply{FrameType::kManifest,
                        job->session->session->result().to_json()};
        } catch (const std::exception& e) {
          job->session->state = ResidentSession::State::kFailed;
          job->session->failure = e.what();
          reply = Reply{FrameType::kError,
                        std::string("open-session failed: ") + e.what()};
        }
      }
      job->session->cv.notify_all();
      std::lock_guard<std::mutex> lk(mu_);
      if (job->session->state == ResidentSession::State::kFailed) {
        // Drop the admission-time placeholder so the name can be reused
        // (only if a later open has not already replaced it).
        auto it = sessions_.find(job->req.session_name);
        if (it != sessions_.end() && it->second == job->session)
          sessions_.erase(it);
      }
      ++jobs_served_;
      if (reply.type == FrameType::kManifest)
        reply.body = splice_service(std::move(reply.body),
                                    snapshot_locked(job->job_id, false));
      job->promise.set_value(std::move(reply));
      break;
    }
    case Job::Kind::kUpdate: {
      Reply reply;
      {
        std::unique_lock<std::mutex> slk(job->session->mu);
        job->session->cv.wait(slk, [&] {
          return job->session->state != ResidentSession::State::kPending;
        });
        if (job->session->state == ResidentSession::State::kFailed) {
          reply = Reply{FrameType::kError, "session '" + job->upd.session_name +
                                               "' failed to open: " +
                                               job->session->failure};
        } else {
          try {
            EdgeBatch batch;
            for (const graph::EdgeChange& c : job->upd.changes) {
              if (c.remove)
                batch.remove(c.u, c.v);
              else
                batch.add(c.u, c.v, c.weight);
            }
            job->session->session->update(batch);
            reply = Reply{FrameType::kManifest,
                          job->session->session->result().to_json()};
          } catch (const std::exception& e) {
            reply = Reply{FrameType::kError, std::string("update failed: ") + e.what()};
          }
        }
      }
      std::lock_guard<std::mutex> lk(mu_);
      ++jobs_served_;
      if (reply.type == FrameType::kManifest)
        reply.body = splice_service(std::move(reply.body),
                                    snapshot_locked(job->job_id, false));
      job->promise.set_value(std::move(reply));
      break;
    }
    case Job::Kind::kClose: {
      std::lock_guard<std::mutex> lk(mu_);
      sessions_.erase(job->close_name);
      ++jobs_served_;
      std::string out = "{\"schema\":\"dlouvain-service-manifest/1\",\"service\":";
      core::append_service_json(out, snapshot_locked(job->job_id, false));
      out += '}';
      job->promise.set_value(Reply{FrameType::kStatsReply, std::move(out)});
      break;
    }
  }
}

}  // namespace dlouvain::service
