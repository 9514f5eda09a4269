// Reed-Solomon (k,m) erasure coding over GF(2^8) for the chunk store.
//
// A stored chunk container is striped into k data fragments plus m parity
// fragments (systematic: the first k fragments are the container split in
// order, so a healthy read concatenates them without touching the field
// arithmetic). Any k of the k+m fragments reconstruct the container — the
// store survives m simultaneous fragment losses at (k+m)/k byte overhead.
// At k = 1 every row of the matrix below is all ones, so each fragment is a
// plain copy of the container: R-way replication is the (1, R-1) code.
//
// The construction is the classic Vandermonde-derived systematic matrix:
// build the (k+m)×k Vandermonde matrix over distinct evaluation points,
// multiply by the inverse of its top k×k block so the data rows become the
// identity, and keep the property that *every* k-row submatrix is
// invertible (column operations preserve it). Decode gathers any k
// fragment rows, inverts that k×k submatrix by Gauss-Jordan elimination in
// the field, and multiplies the surviving fragments back through it.
//
// Cost model: encode charges parity output (m/k input ratio) and decode
// charges one pass over the container, both at sim::params::kErasureBw —
// table-lookup arithmetic, an order of magnitude faster than the gzip-class
// kCompressBw but visible on the restart critical path when data fragments
// are missing. The three cost helpers below are the only place the k = 1
// case is special: copies need no field arithmetic and no parity on the
// wire, so the (1, R-1) code costs exactly what whole-copy replication
// does.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "util/types.h"

namespace dsim::ckptstore::erasure {

/// Bytes per fragment for a `len`-byte container striped k ways (the last
/// data fragment is zero-padded up to this).
inline u64 fragment_bytes(u64 len, int k) {
  return (len + static_cast<u64>(k) - 1) / static_cast<u64>(k);
}

/// Stripe `data` into k data + m parity fragments, each
/// fragment_bytes(data.size(), k) long. Fragment i < k is the i-th k-way
/// split of the input (systematic); fragments k..k+m-1 are parity.
/// Requires 1 <= k, 0 <= m, k + m <= 255.
std::vector<std::vector<std::byte>> encode(std::span<const std::byte> data,
                                           int k, int m);

/// Reconstruct the original `orig_len`-byte container from any >= k
/// fragments, given as (fragment index, fragment bytes) pairs. Returns the
/// container, or an empty vector when fewer than k fragments were supplied
/// (the unrecoverable > m losses case).
std::vector<std::byte> reconstruct(
    const std::vector<std::pair<int, std::vector<std::byte>>>& fragments,
    int k, int m, u64 orig_len);

/// CPU seconds to encode a `bytes`-long container: the parity rows are the
/// work (m output bytes per k input bytes), priced at kErasureBw. 0 at
/// k = 1, where the "parity" is a copy the writer never computes.
double encode_seconds(u64 bytes, int k, int m);

/// CPU seconds to decode a `bytes`-long container when at least one *data*
/// fragment is missing (one matrix-multiply pass over the container).
/// Healthy systematic reads cost nothing — the data fragments concatenate —
/// and neither does any read at k = 1: every fragment is the container.
double decode_seconds(u64 bytes, int k);

/// Bytes a Store of a `bytes`-long container ships over the writer's NIC:
/// all k+m fragments, (k+m) x fragment_bytes, when the writer computed
/// parity; one container at k = 1, where there is no parity to ship.
u64 store_wire_bytes(u64 bytes, int k, int m);

}  // namespace dsim::ckptstore::erasure
