// Binary edge-list file format + sliced parallel loading.
//
// The paper converts all test graphs to "an edge list based binary format"
// and reads it with MPI I/O so every rank pulls only its share. We mirror
// that: a fixed-size header, fixed 24-byte records, and a collective loader
// where each rank seeks to and reads a disjoint contiguous record range.
//
// Layout (little-endian):
//   magic   u64  'DLEL0002' (version 2; 'DLEL0001' files remain readable)
//   n       i64  number of vertices
//   m       i64  number of undirected edges (records)
//   records m x { src i64, dst i64, weight f64 }
//   crc     u32  CRC32 of header + records (version 2 only)
//
// Reads are defensive: the header is checked against the file size, every
// record's endpoints must lie in [0, n) and its weight must be finite and
// non-negative (a hostile or truncated file used to drive an out-of-bounds
// write through the degree accumulation in load_distributed), and version-2
// files carry a whole-file CRC32 that load_distributed verifies before any
// record is trusted.
#pragma once

#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "graph/dist_graph.hpp"
#include "util/types.hpp"

namespace dlouvain::graph {

struct BinaryHeader {
  VertexId num_vertices{0};
  EdgeId num_edges{0};
  bool has_crc{false};  ///< true for version-2 files (CRC32 footer present)
};

/// Write an undirected edge list (each edge once) to `path`. Emits the
/// version-2 format (CRC32 footer).
void write_binary(const std::string& path, VertexId num_vertices,
                  const std::vector<Edge>& undirected_edges);

/// Read just the header. Validates magic/version, non-negative counts, and
/// that the file is exactly the size the header implies.
BinaryHeader read_binary_header(const std::string& path);

/// Read records [lo, hi) -- the per-rank slice read. Every record is
/// validated (endpoints in range, finite non-negative weight); a bad record
/// is reported with its index.
std::vector<Edge> read_binary_slice(const std::string& path, EdgeId lo, EdgeId hi);

/// Recompute the whole-file CRC32 and compare with the footer. Version-1
/// files carry no footer and trivially pass. Throws on unreadable files.
bool verify_binary_crc(const std::string& path);

/// Collective: every rank reads its 1/p record slice concurrently, degrees
/// are accumulated globally to form the requested partition, and the slices
/// are shuffled into a DistGraph. Rank 0 verifies the file CRC first; all
/// ranks throw together on mismatch.
DistGraph load_distributed(comm::Comm& comm, const std::string& path,
                           PartitionKind kind = PartitionKind::kEvenEdges);

/// Collective: write a DistGraph back to the binary format. Each undirected
/// edge is emitted once (by the owner of its smaller endpoint, from the
/// canonical src < dst arc; self loops by their owner). Record counts are
/// exscan-ed so every rank writes its slice at a disjoint offset -- the
/// mirror image of load_distributed's sliced read. Rank 0 seals the file
/// with the CRC32 footer once every slice has landed.
void write_distributed(comm::Comm& comm, const DistGraph& g, const std::string& path);

}  // namespace dlouvain::graph
