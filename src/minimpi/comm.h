// Communicators: the MPI-1 call surface the targets program against.
//
// A Comm is one rank's view of a communicator (shared state + local rank).
// Point-to-point uses per-rank mailboxes; collectives use the
// communicator's rendezvous slot.  `comm_rank` / `comm_size` are the
// *instrumented* MPI_Comm_rank / MPI_Comm_size of the paper (§III-A, §V):
// on the world communicator they mark rw / sw variables in the heavy
// context; on split communicators `comm_rank` marks an rc variable and
// records the communicator's concrete size for the `rc < s_i` constraint.
#pragma once

#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "minimpi/collective_slot.h"
#include "minimpi/request.h"
#include "minimpi/types.h"
#include "minimpi/world.h"
#include "obs/trace.h"
#include "runtime/context.h"

namespace compi::minimpi {

namespace detail {
/// Observability taps for the templated p2p entry points: bump the global
/// message counters (always; one relaxed atomic) and, when tracing is on,
/// drop an instant/span event on the calling rank's track.
void note_send(int dest_local, std::size_t bytes);
void note_recv_done(std::size_t bytes);
}  // namespace detail

/// Receive status (MPI_Status subset).
struct Status {
  int source = kAnySource;  // local rank of the sender
  int tag = kAnyTag;
  std::size_t bytes = 0;
};

/// State shared by all member ranks of one communicator.
struct CommShared {
  World* world = nullptr;
  std::int64_t uid = 0;
  bool is_world = false;
  /// Global (world) ranks indexed by local rank — a row of the paper's
  /// Table II local->global mapping.
  std::vector<int> members;
  std::unique_ptr<CollectiveSlot> slot;
};

class Comm {
 public:
  Comm() = default;
  Comm(std::shared_ptr<CommShared> shared, int local_rank, int ctx_comm_index)
      : shared_(std::move(shared)),
        local_rank_(local_rank),
        ctx_comm_index_(ctx_comm_index) {}

  /// A communicator handle is valid unless this rank passed a negative
  /// color to split() (MPI_UNDEFINED).
  [[nodiscard]] bool valid() const { return shared_ != nullptr; }

  // ---- raw (concrete) identity ----
  [[nodiscard]] int raw_rank() const { return local_rank_; }
  [[nodiscard]] int raw_size() const {
    return static_cast<int>(shared_->members.size());
  }
  [[nodiscard]] bool is_world() const { return shared_->is_world; }
  [[nodiscard]] int global_rank_of(int local) const {
    return shared_->members[local];
  }

  // ---- instrumented identity (automatic marking, paper §III-A) ----
  /// MPI_Comm_rank: marks rw (world) or rc (other) in the heavy context.
  [[nodiscard]] sym::SymInt comm_rank(rt::RuntimeContext& ctx) const;
  /// MPI_Comm_size: marks sw on the world communicator; other
  /// communicators' sizes are not marked (paper §III-A), so the value is
  /// concrete.
  [[nodiscard]] sym::SymInt comm_size(rt::RuntimeContext& ctx) const;

  // ---- point-to-point (dest/src are local ranks of this communicator) ----
  template <typename T>
  void send(std::span<const T> data, int dest, int tag) const {
    shared_->world->check_alive();
    shared_->world->chaos_call(global_rank(), /*collective=*/false);
    detail::note_send(dest, data.size_bytes());
    Message msg{local_rank_, shared_->uid, tag, to_bytes(data)};
    shared_->world->post(global_rank(), shared_->members[dest],
                         std::move(msg));
  }

  template <typename T>
  Status recv(std::span<T> out, int src, int tag) const {
    return recv_impl(out, src, tag, /*reserved_seq=*/-1);
  }

  template <typename T>
  Status sendrecv(std::span<const T> send_data, int dest, int send_tag,
                  std::span<T> recv_data, int src, int recv_tag) const {
    send(send_data, dest, send_tag);  // sends are eager/buffered: no deadlock
    return recv(recv_data, src, recv_tag);
  }

  // ---- non-blocking point-to-point ----

  /// MPI_Isend: eager/buffered, completes immediately.
  template <typename T>
  [[nodiscard]] Request isend(std::span<const T> data, int dest,
                              int tag) const {
    send(data, dest, tag);
    return Request::completed();
  }

  /// MPI_Irecv: posted at call time — an already-delivered message is
  /// consumed immediately, and a wildcard receive's decision ordinal is
  /// reserved here, so matching honors posting order (MPI semantics)
  /// rather than wait() order.  The caller must keep `out` alive until the
  /// request completes.
  template <typename T>
  [[nodiscard]] Request irecv(std::span<T> out, int src, int tag) const {
    shared_->world->check_alive();
    int reserved_seq = -1;
    if (auto msg = shared_->world->post_irecv(global_rank(), src,
                                              shared_->uid, tag,
                                              reserved_seq)) {
      detail::note_recv_done(msg->payload.size());
      from_bytes<T>(msg->payload, out);
      return Request::completed();
    }
    return Request([this, out, src, tag, reserved_seq] {
      (void)recv_impl(out, src, tag, reserved_seq);
    });
  }

  // ---- collectives ----
  void barrier() const;

  template <typename T>
  void bcast(std::span<T> data, int root) const {
    auto result = run_collective(
        "bcast",
        local_rank_ == root ? to_bytes(std::span<const T>(data))
                            : std::vector<std::byte>{},
        [root](std::vector<std::any>& contribs) {
          return std::any_cast<std::vector<std::byte>&>(contribs[root]);
        });
    from_bytes<T>(result, data);
  }

  template <typename T>
  void allreduce(std::span<const T> in, std::span<T> out, Op op) const {
    auto result = run_collective(
        "allreduce", to_bytes(in),
        [op, n = in.size()](std::vector<std::any>& contribs) {
          std::vector<T> acc(n);
          from_bytes<T>(std::any_cast<std::vector<std::byte>&>(contribs[0]),
                        std::span<T>(acc));
          std::vector<T> tmp(n);
          for (std::size_t r = 1; r < contribs.size(); ++r) {
            from_bytes<T>(std::any_cast<std::vector<std::byte>&>(contribs[r]),
                          std::span<T>(tmp));
            for (std::size_t i = 0; i < n; ++i) {
              acc[i] = combine_one(acc[i], tmp[i], op);
            }
          }
          return to_bytes(std::span<const T>(acc));
        });
    from_bytes<T>(result, out);
  }

  /// Reduce: result defined only at root (implemented as an allreduce whose
  /// result non-roots discard — semantically identical, deterministic).
  template <typename T>
  void reduce(std::span<const T> in, std::span<T> out, Op op, int root) const {
    std::vector<T> tmp(in.size());
    allreduce(in, std::span<T>(tmp), op);
    if (local_rank_ == root) {
      std::copy(tmp.begin(), tmp.end(), out.begin());
    }
  }

  template <typename T>
  void allgather(std::span<const T> in, std::span<T> out) const {
    auto result = run_collective(
        "allgather", to_bytes(in), [](std::vector<std::any>& contribs) {
          std::vector<std::byte> acc;
          for (std::any& c : contribs) {
            auto& bytes = std::any_cast<std::vector<std::byte>&>(c);
            acc.insert(acc.end(), bytes.begin(), bytes.end());
          }
          return acc;
        });
    from_bytes<T>(result, out);
  }

  /// Gather to root (out used only at root; size = nranks * in.size()).
  template <typename T>
  void gather(std::span<const T> in, std::span<T> out, int root) const {
    std::vector<T> tmp(in.size() * raw_size());
    allgather(in, std::span<T>(tmp));
    if (local_rank_ == root) {
      std::copy(tmp.begin(), tmp.end(), out.begin());
    }
  }

  /// Scatter from root: `in` read at root (nranks * chunk), each rank
  /// receives its chunk into `out`.
  template <typename T>
  void scatter(std::span<const T> in, std::span<T> out, int root) const {
    const std::size_t chunk = out.size();
    auto result = run_collective(
        "scatter", local_rank_ == root ? to_bytes(in) : std::vector<std::byte>{},
        [root](std::vector<std::any>& contribs) {
          return std::any_cast<std::vector<std::byte>&>(contribs[root]);
        });
    std::span<const std::byte> mine(
        result.data() + local_rank_ * chunk * sizeof(T), chunk * sizeof(T));
    from_bytes<T>(mine, out);
  }

  /// MPI_Alltoall: `in` holds one chunk per destination rank; `out`
  /// receives one chunk per source rank (chunk = out.size() / nranks).
  template <typename T>
  void alltoall(std::span<const T> in, std::span<T> out) const {
    const std::size_t chunk = in.size() / raw_size();
    auto result = run_collective(
        "alltoall", to_bytes(in),
        [chunk, me = local_rank_](std::vector<std::any>& contribs) {
          // Column `me` of the contribution matrix... computed per rank, so
          // the combine assembles the full matrix and each rank slices it.
          std::vector<std::byte> acc;
          for (std::any& c : contribs) {
            auto& bytes = std::any_cast<std::vector<std::byte>&>(c);
            acc.insert(acc.end(), bytes.begin(), bytes.end());
          }
          return acc;
        });
    // result = all contributions concatenated; pick chunk `local_rank_`
    // out of each source's contribution.
    const std::size_t chunk_bytes = chunk * sizeof(T);
    const std::size_t row_bytes = in.size_bytes();
    for (int src = 0; src < raw_size(); ++src) {
      std::span<const std::byte> piece(
          result.data() + src * row_bytes + local_rank_ * chunk_bytes,
          chunk_bytes);
      from_bytes<T>(piece, out.subspan(src * chunk, chunk));
    }
  }

  /// MPI_Reduce_scatter (equal block sizes): element-wise reduce, then
  /// scatter block r to rank r.  `in` has nranks * out.size() elements.
  template <typename T>
  void reduce_scatter(std::span<const T> in, std::span<T> out, Op op) const {
    std::vector<T> reduced(in.size());
    allreduce(in, std::span<T>(reduced), op);
    const std::size_t chunk = out.size();
    std::copy_n(reduced.begin() + local_rank_ * chunk, chunk, out.begin());
  }

  /// MPI_Scan: inclusive prefix reduction over ranks 0..me.
  template <typename T>
  void scan(std::span<const T> in, std::span<T> out, Op op) const {
    std::vector<T> all(in.size() * raw_size());
    allgather(in, std::span<T>(all));
    std::copy_n(all.begin(), in.size(), out.begin());
    for (int r = 1; r <= local_rank_; ++r) {
      for (std::size_t i = 0; i < in.size(); ++i) {
        out[i] = combine_one(out[i], all[r * in.size() + i], op);
      }
    }
  }

  /// MPI_Comm_split.  Collective; ranks passing color < 0 (MPI_UNDEFINED)
  /// receive an invalid Comm.  The new communicator's local->global mapping
  /// row is registered with the context (paper Table II) so the framework
  /// can translate solver-proposed rc values back to global ranks.
  [[nodiscard]] Comm split(rt::RuntimeContext& ctx, int color, int key) const;

 private:
  /// Global (world) rank of this member — the identity the chaos layer and
  /// mailboxes are keyed by.
  [[nodiscard]] int global_rank() const {
    return shared_->members[local_rank_];
  }

  /// The blocking receive body; `reserved_seq` >= 0 replays a wildcard
  /// decision ordinal reserved at irecv posting time.
  template <typename T>
  Status recv_impl(std::span<T> out, int src, int tag,
                   int reserved_seq) const {
    // A span, not an instant: a recv can block (and a blocked recv next to
    // a chaos_drop on the sender's track is the story the trace tells).
    obs::ObsSpan span(obs::Cat::kMpi, "recv", "src", src);
    shared_->world->chaos_call(global_rank(), /*collective=*/false);
    Message msg = shared_->world->recv_message(
        global_rank(), src,
        src == kAnySource ? kAnySource : shared_->members[src], shared_->uid,
        tag, reserved_seq);
    detail::note_recv_done(msg.payload.size());
    from_bytes<T>(msg.payload, out);
    return {msg.src, msg.tag, msg.payload.size()};
  }

  template <typename T>
  static T combine_one(T a, T b, Op op) {
    switch (op) {
      case Op::kSum: return a + b;
      case Op::kProd: return a * b;
      case Op::kMin: return a < b ? a : b;
      case Op::kMax: return a > b ? a : b;
    }
    return a;
  }

  /// `what` is the MPI collective's name, recorded as the enter-exit trace
  /// span on this rank's track (must be a string literal).
  std::vector<std::byte> run_collective(const char* what,
                                        std::vector<std::byte> contribution,
                                        const CollectiveSlot::Combine&) const;

  std::shared_ptr<CommShared> shared_;
  int local_rank_ = -1;
  /// Index of this communicator in the context's per-run creation order
  /// (-1 for the world communicator).
  int ctx_comm_index_ = -1;
};

/// Builds the world communicator view for `rank` over `world`.
[[nodiscard]] Comm make_world_comm(std::shared_ptr<CommShared> shared,
                                   int rank);
/// Builds the shared world-communicator state for a job of `world`.
[[nodiscard]] std::shared_ptr<CommShared> make_world_shared(World& world);

}  // namespace compi::minimpi
