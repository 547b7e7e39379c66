#include "graph/binary_io.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "util/crc32.hpp"

namespace dlouvain::graph {

namespace {

constexpr std::uint64_t kMagic = 0x444c454c30303032ULL;  // "DLEL0002"
constexpr std::size_t kHeaderBytes = 3 * 8;
constexpr std::size_t kRecordBytes = 8 + 8 + 8;
constexpr std::size_t kFooterBytes = 4;  // u32 CRC

struct PackedRecord {
  std::int64_t src;
  std::int64_t dst;
  double weight;
};
static_assert(sizeof(PackedRecord) == kRecordBytes);

void validate_record(const PackedRecord& rec, VertexId num_vertices, EdgeId index,
                     const std::string& path) {
  if (rec.src < 0 || rec.src >= num_vertices || rec.dst < 0 || rec.dst >= num_vertices)
    throw std::runtime_error("read_binary_slice: record " + std::to_string(index) +
                             " of " + path + " has endpoint out of [0, " +
                             std::to_string(num_vertices) + "): src=" +
                             std::to_string(rec.src) + " dst=" + std::to_string(rec.dst));
  if (!std::isfinite(rec.weight) || rec.weight < 0)
    throw std::runtime_error("read_binary_slice: record " + std::to_string(index) +
                             " of " + path + " has invalid weight " +
                             std::to_string(rec.weight));
}

/// CRC32 of the first `length` bytes of `path`, streamed in 64 KiB chunks.
std::uint32_t file_crc(const std::string& path, std::uintmax_t length) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("file_crc: cannot open " + path);
  util::Crc32 crc;
  char buffer[64 * 1024];
  std::uintmax_t remaining = length;
  while (remaining > 0) {
    const auto chunk = static_cast<std::streamsize>(
        std::min<std::uintmax_t>(remaining, sizeof buffer));
    file.read(buffer, chunk);
    if (!file) throw std::runtime_error("file_crc: short read on " + path);
    crc.update(buffer, static_cast<std::size_t>(chunk));
    remaining -= static_cast<std::uintmax_t>(chunk);
  }
  return crc.value();
}

}  // namespace

void write_binary(const std::string& path, VertexId num_vertices,
                  const std::vector<Edge>& undirected_edges) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) throw std::runtime_error("write_binary: cannot open " + path);

  util::Crc32 crc;
  const auto put = [&](const void* data, std::size_t size) {
    file.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
    crc.update(data, size);
  };

  const std::uint64_t magic = kMagic;
  const std::int64_t n = num_vertices;
  const std::int64_t m = static_cast<std::int64_t>(undirected_edges.size());
  put(&magic, 8);
  put(&n, 8);
  put(&m, 8);

  for (const Edge& e : undirected_edges) {
    const PackedRecord rec{e.src, e.dst, e.weight};
    put(&rec, sizeof rec);
  }
  const std::uint32_t footer = crc.value();
  file.write(reinterpret_cast<const char*>(&footer), kFooterBytes);
  if (!file) throw std::runtime_error("write_binary: write failed for " + path);
}

BinaryHeader read_binary_header(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("read_binary_header: cannot open " + path);
  std::uint64_t magic = 0;
  std::int64_t n = 0;
  std::int64_t m = 0;
  file.read(reinterpret_cast<char*>(&magic), 8);
  file.read(reinterpret_cast<char*>(&n), 8);
  file.read(reinterpret_cast<char*>(&m), 8);
  if (!file || magic != kMagic)
    throw std::runtime_error("read_binary_header: not a DLEL0002 file: " + path);
  if (n < 0 || m < 0)
    throw std::runtime_error("read_binary_header: negative counts in header of " + path);

  const std::uintmax_t expected =
      kHeaderBytes + static_cast<std::uintmax_t>(m) * kRecordBytes + kFooterBytes;
  std::error_code ec;
  const std::uintmax_t actual = std::filesystem::file_size(path, ec);
  if (ec || actual != expected)
    throw std::runtime_error("read_binary_header: " + path + " is " +
                             std::to_string(actual) + " bytes but header implies " +
                             std::to_string(expected) + " (truncated or corrupt)");
  return BinaryHeader{n, m};
}

std::vector<Edge> read_binary_slice(const std::string& path, EdgeId lo, EdgeId hi) {
  const auto header = read_binary_header(path);
  if (lo < 0 || hi < lo || hi > header.num_edges)
    throw std::out_of_range("read_binary_slice: bad record range");

  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("read_binary_slice: cannot open " + path);
  file.seekg(static_cast<std::streamoff>(kHeaderBytes + static_cast<std::size_t>(lo) * kRecordBytes));

  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(hi - lo));
  for (EdgeId i = lo; i < hi; ++i) {
    PackedRecord rec{};
    file.read(reinterpret_cast<char*>(&rec), sizeof rec);
    if (!file) throw std::runtime_error("read_binary_slice: truncated file " + path);
    validate_record(rec, header.num_vertices, i, path);
    edges.push_back(Edge{rec.src, rec.dst, rec.weight});
  }
  return edges;
}

bool verify_binary_crc(const std::string& path) {
  const auto header = read_binary_header(path);
  const std::uintmax_t covered =
      kHeaderBytes + static_cast<std::uintmax_t>(header.num_edges) * kRecordBytes;
  const std::uint32_t computed = file_crc(path, covered);

  std::ifstream file(path, std::ios::binary);
  file.seekg(static_cast<std::streamoff>(covered));
  std::uint32_t stored = 0;
  file.read(reinterpret_cast<char*>(&stored), kFooterBytes);
  if (!file) throw std::runtime_error("verify_binary_crc: cannot read footer of " + path);
  return stored == computed;
}

void write_distributed(comm::Comm& comm, const DistGraph& g, const std::string& path) {
  // Canonical record set: each undirected edge once, owned by the rank
  // holding its smaller endpoint (which stores the src < dst arc); self
  // loops by their owner.
  std::vector<Edge> records;
  for (VertexId lv = 0; lv < g.local_count(); ++lv) {
    const VertexId gv = g.to_global(lv);
    for (const auto& e : g.local().neighbors(lv)) {
      if (gv <= e.dst) records.push_back(Edge{gv, e.dst, e.weight});
    }
  }

  const auto my_count = static_cast<EdgeId>(records.size());
  const EdgeId offset = comm.exscan_sum(my_count);
  const EdgeId total = comm.allreduce_sum(my_count);

  // Rank 0 lays down the header and sizes the file; everyone then writes
  // its record range at a disjoint offset (the MPI-I/O pattern in reverse).
  if (comm.rank() == 0) {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file) throw std::runtime_error("write_distributed: cannot create " + path);
    const std::uint64_t magic = kMagic;
    const std::int64_t n = g.global_n();
    const std::int64_t m = total;
    file.write(reinterpret_cast<const char*>(&magic), 8);
    file.write(reinterpret_cast<const char*>(&n), 8);
    file.write(reinterpret_cast<const char*>(&m), 8);
  }
  comm.barrier();  // header before anyone seeks past it

  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!file) throw std::runtime_error("write_distributed: cannot open " + path);
  file.seekp(static_cast<std::streamoff>(kHeaderBytes +
                                         static_cast<std::size_t>(offset) * kRecordBytes));
  for (const Edge& e : records) {
    const PackedRecord rec{e.src, e.dst, e.weight};
    file.write(reinterpret_cast<const char*>(&rec), sizeof rec);
  }
  file.flush();
  if (!file) throw std::runtime_error("write_distributed: write failed for " + path);
  file.close();
  comm.barrier();  // every slice on disk before the footer is computed

  if (comm.rank() == 0) {
    // Seal with the whole-file CRC: one sequential re-read by rank 0, the
    // same role MPI-I/O gives the root when finalising a shared file.
    const std::uintmax_t covered =
        kHeaderBytes + static_cast<std::uintmax_t>(total) * kRecordBytes;
    const std::uint32_t footer = file_crc(path, covered);
    std::fstream seal(path, std::ios::binary | std::ios::in | std::ios::out);
    if (!seal) throw std::runtime_error("write_distributed: cannot reopen " + path);
    seal.seekp(static_cast<std::streamoff>(covered));
    seal.write(reinterpret_cast<const char*>(&footer), kFooterBytes);
    seal.flush();
    if (!seal) throw std::runtime_error("write_distributed: footer write failed for " + path);
  }
  comm.barrier();  // file complete (and sealed) before any rank returns
}

DistGraph load_distributed(comm::Comm& comm, const std::string& path, PartitionKind kind) {
  // Rank 0 verifies the whole-file checksum once and everyone agrees on the
  // verdict before any record is trusted (a corrupt file fails the job
  // collectively instead of desynchronising it), then each rank reads its
  // disjoint contiguous record slice -- the MPI-I/O access pattern.
  std::uint8_t crc_ok = 1;
  if (comm.rank() == 0) {
    try {
      crc_ok = verify_binary_crc(path) ? 1 : 0;
    } catch (const std::exception&) {
      crc_ok = 0;
    }
  }
  crc_ok = comm.broadcast(std::vector<std::uint8_t>{crc_ok}).front();
  if (crc_ok == 0)
    throw std::runtime_error("load_distributed: " + path +
                             " failed its CRC32 check (corrupt or unreadable)");

  const BinaryHeader header = read_binary_header(path);
  const int p = comm.size();
  const Rank r = comm.rank();
  const EdgeId per = header.num_edges / p;
  const EdgeId extra = header.num_edges % p;
  const EdgeId lo = r * per + std::min<EdgeId>(r, extra);
  const EdgeId hi = lo + per + (r < extra ? 1 : 0);
  std::vector<Edge> slice = read_binary_slice(path, lo, hi);

  Partition1D part;
  if (kind == PartitionKind::kEvenVertices) {
    part = partition_even_vertices(header.num_vertices, p);
  } else {
    // Edge-balanced: accumulate endpoint counts for this slice, sum across
    // ranks, and cut where cumulative degree crosses each 1/p quantile.
    // (Dense n-length counting is fine at simulator scale; a production MPI
    // build would shard this, but the resulting partition is identical.)
    // read_binary_slice validated every endpoint, so the indexing is safe.
    std::vector<EdgeId> degree(static_cast<std::size_t>(header.num_vertices), 0);
    for (const Edge& e : slice) {
      ++degree[static_cast<std::size_t>(e.src)];
      if (e.dst != e.src) ++degree[static_cast<std::size_t>(e.dst)];
    }
    degree = comm.allreduce_sum_vec(degree);
    part = partition_even_edges(header.num_vertices, p,
                                [&](VertexId v) { return degree[static_cast<std::size_t>(v)]; });
  }
  return DistGraph::build(comm, part, std::move(slice), /*symmetrize=*/true);
}

}  // namespace dlouvain::graph
