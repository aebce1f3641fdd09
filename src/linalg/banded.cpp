#include "linalg/banded.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hp::linalg {

namespace {

/// Flat scratch for the setup-time graph passes: one allocation sized
/// 4n+1 indices instead of the per-vertex vectors and std::queue nodes the
/// naive adjacency-list construction churns through (the solver_setup bench
/// gates allocs/op, and at 513/2049 nodes the churn dominated setup's heap
/// traffic). Partitioned into degree / visit order (doubles as the BFS
/// FIFO) / neighbour sort buffer / component seed scan.
struct RcmScratch {
    std::vector<std::size_t> buf;
    std::size_t* degree = nullptr;
    std::size_t* cm = nullptr;     ///< visit order; also the BFS queue
    std::size_t* neigh = nullptr;  ///< per-vertex neighbour sort buffer
    std::vector<bool> visited;

    explicit RcmScratch(std::size_t n) : buf(3 * n, 0), visited(n, false) {
        degree = buf.data();
        cm = buf.data() + n;
        neigh = buf.data() + 2 * n;
    }
};

/// Reverse Cuthill-McKee ordering of the subgraph induced by @p keep,
/// appended to @p order. The adjacency is flat CSR (@p adj_ptr / @p adj_idx).
/// Starts each component from its minimum-degree vertex (a cheap
/// peripheral-node heuristic) and visits neighbours in ascending degree.
/// The visit list itself is the BFS FIFO — a vertex is appended once and
/// scanned once — so the pass allocates nothing beyond @p scratch.
void reverse_cuthill_mckee(const std::vector<std::size_t>& adj_ptr,
                           const std::vector<std::size_t>& adj_idx,
                           const std::vector<bool>& keep,
                           RcmScratch& scratch,
                           std::vector<std::size_t>& order) {
    const std::size_t n = adj_ptr.size() - 1;
    std::size_t* degree = scratch.degree;
    for (std::size_t i = 0; i < n; ++i) {
        degree[i] = 0;
        if (!keep[i]) continue;
        for (std::size_t p = adj_ptr[i]; p < adj_ptr[i + 1]; ++p)
            if (keep[adj_idx[p]]) ++degree[i];
    }
    std::vector<bool>& visited = scratch.visited;
    std::size_t* cm = scratch.cm;
    std::size_t* neigh = scratch.neigh;
    std::size_t count = 0;  ///< vertices appended to cm so far
    std::size_t head = 0;   ///< BFS scan cursor into cm
    for (;;) {
        // Unvisited kept vertex of minimum degree seeds the next component.
        std::size_t seed = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (!keep[i] || visited[i]) continue;
            if (seed == n || degree[i] < degree[seed]) seed = i;
        }
        if (seed == n) break;
        cm[count++] = seed;
        visited[seed] = true;
        while (head < count) {
            const std::size_t v = cm[head++];
            std::size_t nn = 0;
            for (std::size_t p = adj_ptr[v]; p < adj_ptr[v + 1]; ++p) {
                const std::size_t u = adj_idx[p];
                if (keep[u] && !visited[u]) neigh[nn++] = u;
            }
            std::sort(neigh, neigh + nn, [&](std::size_t a, std::size_t b) {
                return degree[a] != degree[b] ? degree[a] < degree[b] : a < b;
            });
            for (std::size_t q = 0; q < nn; ++q) {
                visited[neigh[q]] = true;
                cm[count++] = neigh[q];
            }
        }
    }
    order.reserve(order.size() + count);
    for (std::size_t q = count; q-- > 0;) order.push_back(cm[q]);
}

}  // namespace

BandedCholesky::BandedCholesky(const Matrix& spd,
                               std::size_t border_degree_threshold) {
    if (!spd.square())
        throw std::invalid_argument("BandedCholesky: matrix must be square");
    const double scale = std::max(1.0, spd.max_abs());
    if (!spd.is_symmetric(1e-8 * scale))
        throw std::invalid_argument("BandedCholesky: matrix must be symmetric");
    n_ = spd.rows();
    if (n_ == 0) return;

    // Structural adjacency as flat CSR (two passes over the dense input:
    // count, then fill) — one sized allocation per array instead of n
    // per-vertex vectors with push_back growth churn.
    std::vector<std::size_t> adj_ptr(n_ + 1, 0);
    for (std::size_t i = 0; i < n_; ++i) {
        std::size_t deg = 0;
        for (std::size_t j = 0; j < n_; ++j)
            if (i != j && spd(i, j) != 0.0) ++deg;
        adj_ptr[i + 1] = adj_ptr[i] + deg;
    }
    std::vector<std::size_t> adj_idx(adj_ptr[n_]);
    for (std::size_t i = 0; i < n_; ++i) {
        std::size_t p = adj_ptr[i];
        for (std::size_t j = 0; j < n_; ++j)
            if (i != j && spd(i, j) != 0.0) adj_idx[p++] = j;
    }

    std::vector<bool> interior(n_, true);
    std::vector<std::size_t> border;
    for (std::size_t i = 0; i < n_; ++i)
        if (adj_ptr[i + 1] - adj_ptr[i] > border_degree_threshold) {
            interior[i] = false;
            border.push_back(i);
        }
    // Degenerate case (every row dense-coupled): banded block of width n.
    if (border.size() == n_) {
        border.clear();
        interior.assign(n_, true);
    }

    perm_.clear();
    perm_.reserve(n_);
    RcmScratch rcm_scratch(n_);
    reverse_cuthill_mckee(adj_ptr, adj_idx, interior, rcm_scratch, perm_);
    ni_ = perm_.size();
    perm_.insert(perm_.end(), border.begin(), border.end());
    nb_ = n_ - ni_;

    // Half-bandwidth of the permuted interior block; reuses the RCM degree
    // slots as the inverse-permutation table (the pass is over).
    std::size_t* where = rcm_scratch.degree;
    for (std::size_t k = 0; k < n_; ++k) where[perm_[k]] = k;
    hb_ = 0;
    for (std::size_t k = 0; k < ni_; ++k)
        for (std::size_t p = adj_ptr[perm_[k]]; p < adj_ptr[perm_[k] + 1]; ++p) {
            const std::size_t j = adj_idx[p];
            if (interior[j] && where[j] < k) hb_ = std::max(hb_, k - where[j]);
        }

    // Banded Cholesky of the interior: L stored by diagonals,
    // band_[i*(hb_+1)+d] = L(i, i-d).
    const std::size_t w = hb_ + 1;
    band_.assign(ni_ * w, 0.0);
    for (std::size_t i = 0; i < ni_; ++i) {
        const std::size_t lo = i >= hb_ ? i - hb_ : 0;
        for (std::size_t j = lo; j <= i; ++j) {
            double acc = spd(perm_[i], perm_[j]);
            const std::size_t klo = std::max(lo, j >= hb_ ? j - hb_ : 0);
            for (std::size_t k = klo; k < j; ++k)
                acc -= band_[i * w + (i - k)] * band_[j * w + (j - k)];
            if (j == i) {
                if (acc <= 0.0)
                    throw std::invalid_argument(
                        "BandedCholesky: matrix is not positive definite");
                band_[i * w] = std::sqrt(acc);
            } else {
                band_[i * w + (i - j)] = acc / band_[j * w];
            }
        }
    }

    // Border columns W = L^{-1}·A_IB (column-major) and the dense Schur
    // complement S = A_BB - W^T·W, Cholesky-factorised in place.
    w_.assign(ni_ * nb_, 0.0);
    for (std::size_t c = 0; c < nb_; ++c) {
        double* col = w_.data() + c * ni_;
        for (std::size_t i = 0; i < ni_; ++i)
            col[i] = spd(perm_[i], perm_[ni_ + c]);
        for (std::size_t i = 0; i < ni_; ++i) {
            double acc = col[i];
            const std::size_t lo = i >= hb_ ? i - hb_ : 0;
            for (std::size_t k = lo; k < i; ++k)
                acc -= band_[i * w + (i - k)] * col[k];
            col[i] = acc / band_[i * w];
        }
    }
    schur_.assign(nb_ * nb_, 0.0);
    for (std::size_t r = 0; r < nb_; ++r)
        for (std::size_t c = 0; c <= r; ++c) {
            double acc = spd(perm_[ni_ + r], perm_[ni_ + c]);
            const double* wr = w_.data() + r * ni_;
            const double* wc = w_.data() + c * ni_;
            for (std::size_t i = 0; i < ni_; ++i) acc -= wr[i] * wc[i];
            schur_[r * nb_ + c] = acc;
        }
    for (std::size_t r = 0; r < nb_; ++r) {
        for (std::size_t c = 0; c <= r; ++c) {
            double acc = schur_[r * nb_ + c];
            for (std::size_t k = 0; k < c; ++k)
                acc -= schur_[r * nb_ + k] * schur_[c * nb_ + k];
            if (c == r) {
                if (acc <= 0.0)
                    throw std::invalid_argument(
                        "BandedCholesky: matrix is not positive definite");
                schur_[r * nb_ + r] = std::sqrt(acc);
            } else {
                schur_[r * nb_ + c] = acc / schur_[c * nb_ + c];
            }
        }
        for (std::size_t c = r + 1; c < nb_; ++c) schur_[r * nb_ + c] = 0.0;
    }
}

void BandedCholesky::solve_into(const double* b, double* x,
                                double* scratch) const {
    const std::size_t w = hb_ + 1;
    double* y = scratch;
    for (std::size_t k = 0; k < n_; ++k) y[k] = b[perm_[k]];

    // Forward: interior banded L, then the border through W and the Schur
    // factor.
    for (std::size_t i = 0; i < ni_; ++i) {
        double acc = y[i];
        const std::size_t lo = i >= hb_ ? i - hb_ : 0;
        for (std::size_t k = lo; k < i; ++k)
            acc -= band_[i * w + (i - k)] * y[k];
        y[i] = acc / band_[i * w];
    }
    for (std::size_t r = 0; r < nb_; ++r) {
        double acc = y[ni_ + r];
        const double* wr = w_.data() + r * ni_;
        for (std::size_t i = 0; i < ni_; ++i) acc -= wr[i] * y[i];
        for (std::size_t k = 0; k < r; ++k)
            acc -= schur_[r * nb_ + k] * y[ni_ + k];
        y[ni_ + r] = acc / schur_[r * nb_ + r];
    }

    // Backward: border transpose, then interior L^T with the border
    // contribution folded in.
    for (std::size_t r = nb_; r-- > 0;) {
        double acc = y[ni_ + r];
        for (std::size_t k = r + 1; k < nb_; ++k)
            acc -= schur_[k * nb_ + r] * y[ni_ + k];
        y[ni_ + r] = acc / schur_[r * nb_ + r];
    }
    for (std::size_t i = ni_; i-- > 0;) {
        double acc = y[i];
        for (std::size_t c = 0; c < nb_; ++c)
            acc -= w_[c * ni_ + i] * y[ni_ + c];
        const std::size_t hi = std::min(ni_ - 1, i + hb_);
        for (std::size_t k = i + 1; k <= hi; ++k)
            acc -= band_[k * w + (k - i)] * y[k];
        y[i] = acc / band_[i * w];
    }

    for (std::size_t k = 0; k < n_; ++k) x[perm_[k]] = y[k];
}

void BandedCholesky::solve_batch_into(const double* bs, std::size_t nrhs,
                                      double* xs, double* scratch) const {
    // Lane-major staging: permuted row k's nrhs lanes are contiguous at
    // y + k·nrhs, so every inner loop below is a unit-stride sweep the
    // compiler vectorises. Each lane's arithmetic replays solve_into's
    // operation sequence exactly (the updates land in memory instead of a
    // register accumulator, but the value chain per lane is identical), so
    // the batch is bit-identical to nrhs looped solve_into calls.
    const std::size_t w = hb_ + 1;
    double* y = scratch;
    for (std::size_t k = 0; k < n_; ++k) {
        const std::size_t src = perm_[k];
        double* yk = y + k * nrhs;
        for (std::size_t r = 0; r < nrhs; ++r) yk[r] = bs[r * n_ + src];
    }

    // Forward: interior banded L, then the border through W and the Schur
    // factor.
    for (std::size_t i = 0; i < ni_; ++i) {
        double* yi = y + i * nrhs;
        const std::size_t lo = i >= hb_ ? i - hb_ : 0;
        for (std::size_t k = lo; k < i; ++k) {
            const double c = band_[i * w + (i - k)];
            const double* yk = y + k * nrhs;
            for (std::size_t r = 0; r < nrhs; ++r) yi[r] -= c * yk[r];
        }
        const double d = band_[i * w];
        for (std::size_t r = 0; r < nrhs; ++r) yi[r] /= d;
    }
    for (std::size_t b = 0; b < nb_; ++b) {
        double* yb = y + (ni_ + b) * nrhs;
        const double* wb = w_.data() + b * ni_;
        for (std::size_t i = 0; i < ni_; ++i) {
            const double c = wb[i];
            const double* yi = y + i * nrhs;
            for (std::size_t r = 0; r < nrhs; ++r) yb[r] -= c * yi[r];
        }
        for (std::size_t k = 0; k < b; ++k) {
            const double c = schur_[b * nb_ + k];
            const double* yk = y + (ni_ + k) * nrhs;
            for (std::size_t r = 0; r < nrhs; ++r) yb[r] -= c * yk[r];
        }
        const double d = schur_[b * nb_ + b];
        for (std::size_t r = 0; r < nrhs; ++r) yb[r] /= d;
    }

    // Backward: border transpose, then interior L^T with the border
    // contribution folded in.
    for (std::size_t b = nb_; b-- > 0;) {
        double* yb = y + (ni_ + b) * nrhs;
        for (std::size_t k = b + 1; k < nb_; ++k) {
            const double c = schur_[k * nb_ + b];
            const double* yk = y + (ni_ + k) * nrhs;
            for (std::size_t r = 0; r < nrhs; ++r) yb[r] -= c * yk[r];
        }
        const double d = schur_[b * nb_ + b];
        for (std::size_t r = 0; r < nrhs; ++r) yb[r] /= d;
    }
    for (std::size_t i = ni_; i-- > 0;) {
        double* yi = y + i * nrhs;
        for (std::size_t c = 0; c < nb_; ++c) {
            const double coeff = w_[c * ni_ + i];
            const double* yc = y + (ni_ + c) * nrhs;
            for (std::size_t r = 0; r < nrhs; ++r) yi[r] -= coeff * yc[r];
        }
        const std::size_t hi = std::min(ni_ - 1, i + hb_);
        for (std::size_t k = i + 1; k <= hi; ++k) {
            const double c = band_[k * w + (k - i)];
            const double* yk = y + k * nrhs;
            for (std::size_t r = 0; r < nrhs; ++r) yi[r] -= c * yk[r];
        }
        const double d = band_[i * w];
        for (std::size_t r = 0; r < nrhs; ++r) yi[r] /= d;
    }

    for (std::size_t k = 0; k < n_; ++k) {
        const std::size_t dst = perm_[k];
        const double* yk = y + k * nrhs;
        for (std::size_t r = 0; r < nrhs; ++r) xs[r * n_ + dst] = yk[r];
    }
}

}  // namespace hp::linalg
