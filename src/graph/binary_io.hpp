// Binary edge-list file format + sliced parallel loading.
//
// The paper converts all test graphs to "an edge list based binary format"
// and reads it with MPI I/O so every rank pulls only its share. We mirror
// that: a fixed-size header, fixed 24-byte records, and a collective loader
// where each rank seeks to and reads a disjoint contiguous record range.
//
// Layout (little-endian):
//   magic   u64  'DLEL0002' (the one version read and written)
//   n       i64  number of vertices
//   m       i64  number of undirected edges (records)
//   records m x { src i64, dst i64, weight f64 }
//   crc     u32  CRC32 of header + records
//
// Reads are defensive: the header is checked against the file size, every
// record's endpoints must lie in [0, n) and its weight must be finite and
// non-negative (a hostile or truncated file used to drive an out-of-bounds
// write through the degree accumulation in load_distributed), and the
// whole-file CRC32 is verified by load_distributed before any record is
// trusted.
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
};

/// Write an undirected edge list (each edge once) to `path`, sealed with the
/// CRC32 footer.
void write_binary(const std::string& path, VertexId num_vertices,
                  const std::vector<Edge>& undirected_edges);

/// Read just the header. Validates the DLEL0002 magic, non-negative counts,
/// and that the file is exactly the size the header implies.
BinaryHeader read_binary_header(const std::string& path);

/// Read records [lo, hi) -- the per-rank slice read. Every record is
/// validated (endpoints in range, finite non-negative weight); a bad record
/// is reported with its index.
std::vector<Edge> read_binary_slice(const std::string& path, EdgeId lo, EdgeId hi);

/// Recompute the whole-file CRC32 and compare with the footer. Throws on
/// unreadable files and on any header read_binary_header rejects.
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
