#include "core/checkpoint.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "graph/binary_io.hpp"
#include "louvain/early_term.hpp"
#include "util/crc32.hpp"
#include "util/prng.hpp"

namespace dlouvain::core {

namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kStateMagic = 0x444c434b53544154ULL;  // "DLCKSTAT"
// The one record layout this build reads and writes; 1-3 were the retired
// multi-file layouts. A record of any other version is skipped like a
// corrupt one (older checkpoint, or fresh start).
constexpr std::uint32_t kVersion = 4;

// ---- the sealed state record --------------------------------------------

/// Append-only buffer writer; write() seals the file with a trailing CRC32.
class ByteWriter {
 public:
  void put_u64(std::uint64_t v) { put_raw(&v, sizeof v); }
  void put_i64(std::int64_t v) { put_raw(&v, sizeof v); }
  void put_i32(std::int32_t v) { put_raw(&v, sizeof v); }
  void put_u32(std::uint32_t v) { put_raw(&v, sizeof v); }
  void put_u8(std::uint8_t v) { put_raw(&v, sizeof v); }
  void put_f64_bits(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

  void write(const fs::path& path) const {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file) throw std::runtime_error("checkpoint: cannot create " + path.string());
    file.write(reinterpret_cast<const char*>(buffer_.data()),
               static_cast<std::streamsize>(buffer_.size()));
    const std::uint32_t crc = util::crc32(buffer_);
    file.write(reinterpret_cast<const char*>(&crc), sizeof crc);
    if (!file) throw std::runtime_error("checkpoint: write failed for " + path.string());
  }

 private:
  void put_raw(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const std::byte*>(data);
    buffer_.insert(buffer_.end(), bytes, bytes + size);
  }
  std::vector<std::byte> buffer_;
};

/// Cursor over a record body. A read past the end yields zero and clears
/// ok(), so a short record fails its range checks instead of throwing.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - cursor_; }

  std::uint64_t get_u64() { return get_raw<std::uint64_t>(); }
  std::int64_t get_i64() { return get_raw<std::int64_t>(); }
  std::int32_t get_i32() { return get_raw<std::int32_t>(); }
  std::uint32_t get_u32() { return get_raw<std::uint32_t>(); }
  std::uint8_t get_u8() { return get_raw<std::uint8_t>(); }
  double get_f64_bits() { return std::bit_cast<double>(get_u64()); }

 private:
  template <typename T>
  T get_raw() {
    if (sizeof(T) > remaining()) {
      ok_ = false;
      return T{};
    }
    T v;
    std::memcpy(&v, bytes_.data() + cursor_, sizeof v);
    cursor_ += sizeof v;
    return v;
  }
  std::span<const std::byte> bytes_;
  std::size_t cursor_{0};
  bool ok_{true};
};

/// A parsed state.bin. orig_global_n is chain.size().
struct StateRecord {
  CheckpointState state;
  std::uint64_t fingerprint{0};
  std::vector<VertexId> chain;  ///< global original -> current vertex map
};

/// The one parser of a sealed state record (body + CRC32). nullopt unless the
/// CRC matches, the magic and version are this build's, every field is in
/// range and the record is exactly as long as its vertex count says. The
/// length is checked before the chain is allocated, so a resealed count can
/// never drive the allocation.
std::optional<StateRecord> parse_state(std::span<const std::byte> sealed) {
  if (sealed.size() < sizeof(std::uint32_t)) return std::nullopt;
  const auto body = sealed.first(sealed.size() - sizeof(std::uint32_t));
  std::uint32_t stored = 0;
  std::memcpy(&stored, sealed.data() + body.size(), sizeof stored);
  if (stored != util::crc32(body)) return std::nullopt;

  ByteReader in(body);
  if (in.get_u64() != kStateMagic || in.get_u32() != kVersion) return std::nullopt;
  StateRecord record;
  CheckpointState& s = record.state;
  s.next_phase = in.get_i32();
  s.phases_done = in.get_i32();
  s.iterations_done = in.get_i64();
  s.prev_outer_mod = in.get_f64_bits();
  const std::uint8_t forced_final = in.get_u8();
  s.forced_final = forced_final != 0;
  s.counters.seconds = in.get_f64_bits();
  s.counters.messages = in.get_i64();
  s.counters.bytes = in.get_i64();
  record.fingerprint = in.get_u64();
  const std::int64_t n = in.get_i64();
  if (!in.ok() || s.next_phase < 0 || s.phases_done < 0 || s.iterations_done < 0 ||
      !std::isfinite(s.prev_outer_mod) || forced_final > 1 ||
      !std::isfinite(s.counters.seconds) || s.counters.seconds < 0 ||
      s.counters.messages < 0 || s.counters.bytes < 0 || n < 0)
    return std::nullopt;
  if (in.remaining() % sizeof(VertexId) != 0 ||
      in.remaining() / sizeof(VertexId) != static_cast<std::uint64_t>(n))
    return std::nullopt;
  record.chain.resize(static_cast<std::size_t>(n));
  for (auto& v : record.chain) {
    v = in.get_i64();
    if (v < 0 || v >= n) return std::nullopt;
  }
  return record;
}

/// The whole file, or nothing when it cannot be read.
std::vector<std::byte> read_file(const fs::path& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) return {};
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  std::ifstream file(path, std::ios::binary);
  file.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(size));
  if (!file) return {};
  return bytes;
}

/// Phase indices of `dir`'s phase_<k> subdirectories, newest first. Does not
/// validate contents.
std::vector<int> candidate_phases(const std::string& dir) {
  std::vector<int> phases;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    constexpr std::string_view prefix = "phase_";
    if (name.rfind(prefix, 0) != 0) continue;
    int k = -1;
    const auto* begin = name.data() + prefix.size();
    const auto* end = name.data() + name.size();
    if (std::from_chars(begin, end, k).ptr != end || k < 0) continue;
    phases.push_back(k);
  }
  std::sort(phases.rbegin(), phases.rend());
  return phases;
}

fs::path phase_dir(const std::string& dir, int phase) {
  return fs::path(dir) / ("phase_" + std::to_string(phase));
}

/// Does `path` hold a sealed coarse graph that has a vertex for every chain
/// entry?
bool graph_matches(const fs::path& path, std::span<const VertexId> chain) {
  try {
    if (!graph::verify_binary_crc(path.string())) return false;
    const VertexId n = graph::read_binary_header(path.string()).num_vertices;
    return std::ranges::all_of(chain, [n](VertexId v) { return v < n; });
  } catch (const std::exception&) {
    return false;
  }
}

/// The state.bin bytes of the newest whole checkpoint in `dir`: its record
/// parses, names its own phase, and its graph.dlel matches. Empty when no
/// checkpoint qualifies; older ones are the fallback for a damaged newest.
std::vector<std::byte> newest_valid_state(const std::string& dir) {
  for (const int k : candidate_phases(dir)) {
    auto bytes = read_file(phase_dir(dir, k) / "state.bin");
    const auto record = parse_state(bytes);
    if (record && record->state.next_phase == k &&
        graph_matches(phase_dir(dir, k) / "graph.dlel", record->chain))
      return bytes;
  }
  return {};
}

}  // namespace

std::uint64_t config_fingerprint(const DistConfig& cfg) {
  // Only fields that change the trajectory of the run; telemetry/threading
  // knobs are deliberately absent (results are identical across them) -- a
  // checkpoint written under any setting of those resumes under any other.
  std::uint64_t h = 0x646c6f75636b7074ULL;  // "dlouckpt"
  const auto mix = [&h](std::uint64_t v) { h = util::hash_combine(h, v); };
  const auto mix_f = [&](double v) { mix(std::bit_cast<std::uint64_t>(v)); };

  mix(cfg.base.seed);
  mix_f(cfg.base.threshold);
  mix(static_cast<std::uint64_t>(cfg.base.max_phases));
  mix(static_cast<std::uint64_t>(cfg.base.max_iterations_per_phase));
  mix_f(cfg.base.resolution);
  mix(cfg.base.early_termination ? 1 : 0);
  mix_f(cfg.base.et_alpha);
  mix_f(louvain::kEtInactiveCutoff);
  mix(cfg.base.vertex_following ? 1 : 0);
  mix(static_cast<std::uint64_t>(cfg.variant));
  mix(cfg.add_threshold_cycling ? 1 : 0);
  for (const double tau : kCycleThresholds) mix_f(tau);
  for (const int len : kCycleLengths) mix(static_cast<std::uint64_t>(len));
  mix_f(kEtcExitFraction);
  mix(cfg.use_neighbor_exchange ? 1 : 0);
  mix(cfg.use_coloring ? 1 : 0);
  return h;
}

void checkpoint_save(comm::Comm& comm, const std::string& dir,
                     const graph::DistGraph& g, std::span<const VertexId> orig_to_cur,
                     VertexId orig_global_n, const CheckpointState& state,
                     std::uint64_t fingerprint) {
  // All comm traffic below (chain gather, barriers, collective graph write)
  // is checkpoint I/O, not algorithm work: reclassify it so Result::messages
  // and Result::bytes mean the same thing with and without checkpointing.
  const util::TrafficReclassScope reclass(comm.counters(),
                                          util::Counter::kCheckpointMessages,
                                          util::Counter::kCheckpointBytes);
  // Rank-order concatenation of the per-rank slices IS the global array
  // (the chain lives on contiguous partitions).
  const auto chain = comm.gatherv<VertexId>(
      std::vector<VertexId>(orig_to_cur.begin(), orig_to_cur.end()), 0);

  const fs::path tmp = fs::path(dir) / (".tmp_phase_" + std::to_string(state.next_phase));
  if (comm.rank() == 0) {
    fs::create_directories(dir);
    fs::remove_all(tmp);
    fs::create_directories(tmp);
  }
  comm.barrier();  // tmp dir exists before the collective graph write

  graph::write_distributed(comm, g, (tmp / "graph.dlel").string());

  if (comm.rank() == 0) {
    ByteWriter record;
    record.put_u64(kStateMagic);
    record.put_u32(kVersion);
    record.put_i32(state.next_phase);
    record.put_i32(state.phases_done);
    record.put_i64(state.iterations_done);
    record.put_f64_bits(state.prev_outer_mod);
    record.put_u8(state.forced_final ? 1 : 0);
    record.put_f64_bits(state.counters.seconds);
    record.put_i64(state.counters.messages);
    record.put_i64(state.counters.bytes);
    record.put_u64(fingerprint);
    record.put_i64(orig_global_n);
    for (const VertexId v : chain) record.put_i64(v);
    record.write(tmp / "state.bin");

    // Commit: tmp -> phase_<k>, then drop superseded checkpoints. A crash
    // before the rename leaves the previous checkpoint untouched.
    const fs::path final_dir = phase_dir(dir, state.next_phase);
    fs::remove_all(final_dir);
    fs::rename(tmp, final_dir);
    for (const int k : candidate_phases(dir)) {
      if (k != state.next_phase) fs::remove_all(phase_dir(dir, k));
    }

    std::error_code ec;
    std::int64_t file_bytes = 0;
    for (const auto& entry : fs::directory_iterator(final_dir, ec)) {
      if (entry.is_regular_file(ec))
        file_bytes += static_cast<std::int64_t>(entry.file_size(ec));
    }
    comm.counters()[util::Counter::kCheckpointFileBytes] += file_bytes;
  }
  comm.barrier();  // checkpoint committed before any rank proceeds
}

std::optional<ResumedState> checkpoint_load(comm::Comm& comm, const std::string& dir,
                                            std::uint64_t fingerprint) {
  // Load traffic is checkpoint I/O, same as save (see checkpoint_save).
  const util::TrafficReclassScope reclass(comm.counters(),
                                          util::Counter::kCheckpointMessages,
                                          util::Counter::kCheckpointBytes);
  // Rank 0 picks the newest valid checkpoint and broadcasts its record (none:
  // empty), so every rank parses the same bytes and reaches the same verdict
  // before any collective I/O.
  std::vector<std::byte> bytes;
  if (comm.rank() == 0) bytes = newest_valid_state(dir);
  auto record = parse_state(comm.broadcast(std::move(bytes)));
  if (!record) return std::nullopt;
  if (record->fingerprint != fingerprint)
    throw std::runtime_error(
        "checkpoint_load: checkpoint in " + dir +
        " was written with a different configuration; refusing to resume "
        "(delete the directory to start fresh)");

  ResumedState resumed;
  resumed.state = record->state;
  resumed.orig_global_n = static_cast<VertexId>(record->chain.size());

  // Coarse-graph partition: every checkpointed graph is a rebuild output,
  // which lives on the even-vertices split, so loading onto that split at
  // the current p lands a same-p resume on the exact partition it was
  // written from. A different p is a valid repartition (not bitwise; see
  // the determinism contract in checkpoint.hpp).
  resumed.graph = graph::load_distributed(
      comm, (phase_dir(dir, resumed.state.next_phase) / "graph.dlel").string(),
      graph::PartitionKind::kEvenVertices);

  // Chain: every rank takes its contiguous slice. Slice boundaries only need
  // to concatenate in rank order; the even split works at any rank count.
  const auto part = graph::partition_even_vertices(resumed.orig_global_n, comm.size());
  resumed.orig_to_cur.assign(record->chain.begin() + part.begin(comm.rank()),
                             record->chain.begin() + part.end(comm.rank()));
  return resumed;
}

void checkpoint_clear(const std::string& dir) {
  for (const int k : candidate_phases(dir)) fs::remove_all(phase_dir(dir, k));
}

std::optional<CheckpointState> checkpoint_latest(const std::string& dir) {
  auto record = parse_state(newest_valid_state(dir));
  if (!record) return std::nullopt;
  return record->state;
}

// ---- checkpoint directory ownership ------------------------------------

namespace {

/// Is the pid named in a LOCK line still running? EPERM means "alive but
/// not ours", which still counts as alive; only a confirmed ESRCH (or an
/// unparseable line, which we treat as live to stay safe) frees the lock.
bool lock_owner_alive(const std::string& line) {
  const std::string_view prefix = "pid ";
  if (line.rfind(prefix, 0) != 0) return true;
  int pid = 0;
  const char* first = line.data() + prefix.size();
  const auto [ptr, ec] = std::from_chars(first, line.data() + line.size(), pid);
  if (ec != std::errc{} || ptr == first || pid <= 0) return true;
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH;
}

}  // namespace

CheckpointDirLock::CheckpointDirLock(std::string dir, std::string owner_tag) {
  fs::create_directories(dir);
  const fs::path path = fs::path(dir) / "LOCK";
  owner_line_ = "pid " + std::to_string(static_cast<long>(::getpid())) +
                " session " + std::move(owner_tag);
  // O_EXCL creation is the atomic claim; a stale lock (holder pid gone) is
  // unlinked and re-raced -- if two reclaimers race, one loses the O_EXCL
  // and re-reads the winner's fresh line.
  for (int attempt = 0; attempt < 16; ++attempt) {
    const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      const auto written =
          ::write(fd, owner_line_.data(), owner_line_.size());
      ::close(fd);
      if (written != static_cast<ssize_t>(owner_line_.size())) {
        ::unlink(path.c_str());
        throw std::runtime_error("checkpoint: cannot write " + path.string());
      }
      path_ = path.string();
      return;
    }
    if (errno != EEXIST)
      throw std::runtime_error("checkpoint: cannot create " + path.string());
    std::string holder;
    {
      std::ifstream in(path);
      std::getline(in, holder);
    }
    // A vanished or empty file means the holder released (or is mid-write)
    // between our open and read; retry the claim.
    if (!holder.empty() && lock_owner_alive(holder))
      throw CheckpointDirBusy(holder, dir);
    ::unlink(path.c_str());
  }
  throw std::runtime_error("checkpoint: could not claim " + path.string() +
                           " (lock churn)");
}

CheckpointDirLock::~CheckpointDirLock() { release(); }

CheckpointDirLock::CheckpointDirLock(CheckpointDirLock&& other) noexcept
    : path_(std::move(other.path_)), owner_line_(std::move(other.owner_line_)) {
  other.path_.clear();
}

CheckpointDirLock& CheckpointDirLock::operator=(CheckpointDirLock&& other) noexcept {
  if (this != &other) {
    release();
    path_ = std::move(other.path_);
    owner_line_ = std::move(other.owner_line_);
    other.path_.clear();
  }
  return *this;
}

void CheckpointDirLock::release() noexcept {
  if (!path_.empty()) ::unlink(path_.c_str());
  path_.clear();
}

}  // namespace dlouvain::core
