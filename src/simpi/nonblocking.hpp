#pragma once
// Nonblocking collectives: IAllgatherv and IAlltoallv.
//
// GraphFromFasta's overlapped weld pooling starts the exchange, runs the
// next local loop while the contributions are in flight, and only then
// waits (`--gff-sharding overlap` pools with IAllgatherv, owner-computes
// routes with IAlltoallv). The blocking collectives stay on Context.
//
// Simpi sends are buffered (the payload is copied into the destination
// mailbox immediately), so construction posts every part at once and never
// blocks; wait() drains the mailbox.

#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "simpi/context.hpp"

namespace trinity::simpi {

/// Nonblocking allgatherv: the communication/computation-overlap primitive
/// the overlapped weld pooling uses. Construction *starts* the collective —
/// every rank posts its contribution to every peer immediately (sends are
/// buffered, so construction never blocks) — and the caller is free to
/// compute while peers' contributions arrive; wait() then assembles the
/// rank-ordered concatenation, exactly Context::allgatherv's result.
///
/// Accounting matches the blocking collective's logical kAllgatherv row
/// (one call, contribution counted as sent, pooled result as received,
/// residual blocked wall time in wait_seconds with "allgatherv.wait" trace
/// spans); the raw transfers count under kExtension like every nonblocking
/// primitive. The modeled collective cost is charged at wait(), minus
/// `overlapped_seconds` of compute the caller performed while the transfer
/// was in flight (clamped at zero) — that credit is the overlap.
///
/// Collective: every rank must construct and wait in the same program
/// order. Concurrent in-flight requests need distinct channels (each
/// channel reserves one negative tag); two requests on one channel stay
/// correct only if waited in construction order (FIFO mailbox matching).
template <typename T>
class IAllgatherv {
 public:
  IAllgatherv(Context& ctx, std::vector<T> local, int channel = 0);
  IAllgatherv(const IAllgatherv&) = delete;
  IAllgatherv& operator=(const IAllgatherv&) = delete;

  /// Blocks until every peer's contribution has arrived and returns the
  /// concatenation in rank order. May be called once. `counts_out`, when
  /// non-null, receives each rank's element count.
  std::vector<T> wait(double overlapped_seconds = 0.0,
                      std::vector<std::size_t>* counts_out = nullptr);

 private:
  Context* ctx_;
  std::vector<T> local_;
  int tag_;
  bool done_ = false;
};

/// Nonblocking alltoallv, mirroring IAllgatherv: construction posts every
/// destination part immediately (buffered sends, never blocks) and the
/// caller computes while the owner-addressed parts are in flight; wait()
/// assembles the received parts indexed by source rank, exactly
/// Context::alltoallv's result. Accounting matches the blocking
/// collective's kAlltoallv row (one call, the full send matrix row as
/// sent, the receive row as received, residual blocked wall in
/// wait_seconds with "alltoallv.wait" trace spans); the raw transfers
/// count under kExtension like every nonblocking primitive. The modeled
/// collective cost is charged at wait(), minus `overlapped_seconds`
/// (clamped at zero). Collective: every rank must construct and wait in
/// the same program order; concurrent in-flight requests need distinct
/// channels.
template <typename T>
class IAlltoallv {
 public:
  IAlltoallv(Context& ctx, std::vector<std::vector<T>> send_parts, int channel = 0);
  IAlltoallv(const IAlltoallv&) = delete;
  IAlltoallv& operator=(const IAlltoallv&) = delete;

  /// Blocks until every peer's part has arrived and returns the parts
  /// indexed by source rank. May be called once.
  std::vector<std::vector<T>> wait(double overlapped_seconds = 0.0);

 private:
  Context* ctx_;
  std::vector<T> own_part_;
  std::size_t sent_bytes_ = 0;
  int tag_;
  bool done_ = false;
};

// --- template implementations ---------------------------------------------------

namespace detail {
/// Channel c of an in-flight IAllgatherv uses tag kTagIallgatherv - c, so
/// the nonblocking channels extend the reserved negative range downward.
inline constexpr int kTagIallgatherv = -7;
}  // namespace detail

template <typename T>
IAllgatherv<T>::IAllgatherv(Context& ctx, std::vector<T> local, int channel)
    : ctx_(&ctx), local_(std::move(local)), tag_(detail::kTagIallgatherv - channel) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (channel < 0) throw std::invalid_argument("IAllgatherv: channel must be >= 0");
  auto& row = ctx.extension_op_stats(CommOp::kAllgatherv);
  ++row.calls;
  row.bytes_sent += local_.size() * sizeof(T);
  for (int r = 0; r < ctx.size(); ++r) {
    if (r == ctx.rank()) continue;
    ctx.internal_send(r, tag_, std::as_bytes(std::span<const T>(local_)));
  }
}

template <typename T>
std::vector<T> IAllgatherv<T>::wait(double overlapped_seconds,
                                    std::vector<std::size_t>* counts_out) {
  if (done_) throw std::logic_error("IAllgatherv: wait() called twice");
  done_ = true;
  Context& ctx = *ctx_;
  trace::SpanScope span("iallgatherv.wait", trace::kCatSimpi);
  if (span) span.arg("overlapped_s", overlapped_seconds);
  std::vector<std::vector<T>> parts(static_cast<std::size_t>(ctx.size()));
  parts[static_cast<std::size_t>(ctx.rank())] = std::move(local_);
  for (int r = 0; r < ctx.size(); ++r) {
    if (r == ctx.rank()) continue;
    const Message msg = ctx.internal_recv_as(CommOp::kAllgatherv, r, tag_);
    auto& slot = parts[static_cast<std::size_t>(r)];
    slot.resize(msg.payload.size() / sizeof(T));
    if (!msg.payload.empty()) {
      std::memcpy(slot.data(), msg.payload.data(), msg.payload.size());
    }
  }
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<T> flat;
  flat.reserve(total);
  if (counts_out) counts_out->clear();
  for (const auto& p : parts) {
    if (counts_out) counts_out->push_back(p.size());
    flat.insert(flat.end(), p.begin(), p.end());
  }
  // The logical row counts the full pooled result as received, like the
  // blocking collective; remote bytes were added by internal_recv_as, so
  // only the local contribution is still missing.
  ctx.extension_op_stats(CommOp::kAllgatherv).bytes_received +=
      parts[static_cast<std::size_t>(ctx.rank())].size() * sizeof(T);
  const double modeled = ctx.cost_model().collective_cost(ctx.size(), total * sizeof(T));
  ctx.charge(modeled > overlapped_seconds ? modeled - overlapped_seconds : 0.0);
  return flat;
}

template <typename T>
IAlltoallv<T>::IAlltoallv(Context& ctx, std::vector<std::vector<T>> send_parts, int channel)
    : ctx_(&ctx), tag_(detail::kTagIalltoallv - channel) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (channel < 0) throw std::invalid_argument("IAlltoallv: channel must be >= 0");
  if (send_parts.size() != static_cast<std::size_t>(ctx.size())) {
    throw std::invalid_argument("IAlltoallv: need one part per destination rank");
  }
  for (const auto& part : send_parts) sent_bytes_ += part.size() * sizeof(T);
  auto& row = ctx.extension_op_stats(CommOp::kAlltoallv);
  ++row.calls;
  row.bytes_sent += sent_bytes_;
  for (int r = 0; r < ctx.size(); ++r) {
    const auto& part = send_parts[static_cast<std::size_t>(r)];
    if (r == ctx.rank()) continue;
    ctx.internal_send(r, tag_, std::as_bytes(std::span<const T>(part)));
  }
  own_part_ = std::move(send_parts[static_cast<std::size_t>(ctx.rank())]);
}

template <typename T>
std::vector<std::vector<T>> IAlltoallv<T>::wait(double overlapped_seconds) {
  if (done_) throw std::logic_error("IAlltoallv: wait() called twice");
  done_ = true;
  Context& ctx = *ctx_;
  trace::SpanScope span("ialltoallv.wait", trace::kCatSimpi);
  if (span) span.arg("overlapped_s", overlapped_seconds);
  std::vector<std::vector<T>> received(static_cast<std::size_t>(ctx.size()));
  received[static_cast<std::size_t>(ctx.rank())] = std::move(own_part_);
  std::size_t recv_bytes =
      received[static_cast<std::size_t>(ctx.rank())].size() * sizeof(T);
  for (int r = 0; r < ctx.size(); ++r) {
    if (r == ctx.rank()) continue;
    const Message msg = ctx.internal_recv_as(CommOp::kAlltoallv, r, tag_);
    auto& slot = received[static_cast<std::size_t>(r)];
    slot.resize(msg.payload.size() / sizeof(T));
    if (!msg.payload.empty()) {
      std::memcpy(slot.data(), msg.payload.data(), msg.payload.size());
    }
    recv_bytes += msg.payload.size();
  }
  // Remote bytes were counted by internal_recv_as; add the own part so the
  // logical row matches the blocking collective exactly.
  ctx.extension_op_stats(CommOp::kAlltoallv).bytes_received +=
      received[static_cast<std::size_t>(ctx.rank())].size() * sizeof(T);
  const double modeled =
      ctx.cost_model().collective_cost(ctx.size(), sent_bytes_ + recv_bytes);
  ctx.charge(modeled > overlapped_seconds ? modeled - overlapped_seconds : 0.0);
  return received;
}

}  // namespace trinity::simpi
