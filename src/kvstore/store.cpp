#include "kvstore/store.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"

namespace rill::kvstore {

namespace {

/// Shard i traces on its own lane next to the base kv-store track, so a
/// sharded tier shows one lane per shard in Perfetto.
obs::Track shard_track(int shard) noexcept {
  return obs::Track{obs::kTrackKvStore.pid, obs::kTrackKvStore.tid + shard};
}

}  // namespace

std::uint64_t Store::begin_op_span(const char* op, std::size_t items) {
  if (tracer_ == nullptr) return obs::kNoSpan;
  return tracer_->begin(
      shard_track(shard_), "kv", op,
      {obs::arg("items", static_cast<std::uint64_t>(items))});
}

void Store::end_op_span(std::uint64_t span, bool ok) {
  if (tracer_ == nullptr) return;
  tracer_->end(span, {obs::arg("ok", ok)});
}

SimDuration Store::service_cost(std::size_t items, std::size_t bytes) const {
  return StoreConfig::request_overhead +
         static_cast<SimDuration>(items) * StoreConfig::per_item_cost +
         static_cast<SimDuration>(StoreConfig::ns_per_byte *
                                  static_cast<double>(bytes) / 1000.0);
}

SimDuration Store::attempt_timeout(std::size_t items,
                                   std::size_t bytes) const {
  // The floor covers the round-trip; the scaled term keeps a huge
  // pipelined batch from exhausting max_attempts on deadlines it could
  // never meet.  In fault-free runs this timer is always cancelled before
  // firing, so the scaling is invisible to the deterministic schedule.
  return StoreConfig::request_timeout +
         static_cast<SimDuration>(
             StoreConfig::timeout_cost_factor *
             static_cast<double>(service_cost(items, bytes)));
}

SimDuration Store::backoff_delay(int attempt_no) {
  // base × 2^(attempt-1), capped, with multiplicative jitter so colliding
  // retries from many executors de-synchronise.
  SimDuration d = StoreConfig::backoff_base;
  for (int i = 1; i < attempt_no && d < StoreConfig::backoff_cap; ++i) d *= 2;
  d = std::min(d, StoreConfig::backoff_cap);
  return static_cast<SimDuration>(static_cast<double>(d) *
                                  (1.0 + rng_.uniform01() *
                                             StoreConfig::backoff_jitter));
}

void Store::apply(const Request& req, Reply& reply, std::size_t& reply_bytes) {
  reply_bytes = 16;
  switch (req.op) {
    case Op::Put: {
      stats_.puts += 1;
      stats_.batch_items += req.kvs.size();
      for (const auto& [k, v] : req.kvs) {
        stats_.bytes_written += k.size() + v.size();
        data_[k] = v;
      }
      break;
    }
    case Op::Get: {
      ++stats_.gets;
      if (auto it = data_.find(req.key); it != data_.end()) {
        reply.value = it->second;
        stats_.bytes_read += reply.value->size();
        reply_bytes = reply.value->size();
      }
      break;
    }
    case Op::MGet: {
      ++stats_.gets;
      stats_.batch_items += req.keys.size();
      reply.values.reserve(req.keys.size());
      for (const std::string& k : req.keys) {
        if (auto it = data_.find(k); it != data_.end()) {
          stats_.bytes_read += it->second.size();
          reply_bytes += it->second.size();
          reply.values.push_back(it->second);
        } else {
          reply.values.push_back(std::nullopt);
        }
      }
      break;
    }
    case Op::MDel: {
      ++stats_.deletes;
      stats_.batch_items += req.keys.size();
      for (const std::string& k : req.keys) data_.erase(k);
      break;
    }
  }
}

void Store::attempt(VmId client, std::shared_ptr<const Request> req,
                    int attempt_no, AttemptDone done) {
  std::size_t request_bytes = 0;
  std::size_t items = 0;
  switch (req->op) {
    case Op::Put:
      for (const auto& [k, v] : req->kvs) request_bytes += k.size() + v.size();
      items = req->kvs.size();
      break;
    case Op::MGet:
    case Op::MDel:
      for (const std::string& k : req->keys) request_bytes += k.size();
      items = req->keys.size();
      break;
    case Op::Get:
      request_bytes = req->key.size();
      items = 1;
      break;
  }

  // One settled flag per attempt: whichever of {reply, timeout} fires
  // first wins; the loser becomes a no-op.
  auto settled = std::make_shared<bool>(false);
  auto done_sp = std::make_shared<AttemptDone>(std::move(done));

  const sim::TimerId timeout_timer = engine_.schedule(
      attempt_timeout(items, request_bytes),
      [this, client, req, attempt_no, settled, done_sp] {
        if (*settled) return;
        *settled = true;
        ++stats_.timeouts;
        if (tracer_ != nullptr) {
          tracer_->instant(shard_track(shard_), "kv", "attempt_timeout",
                           {obs::arg("attempt", attempt_no)});
        }
        if (attempt_no >= StoreConfig::max_attempts) {
          ++stats_.failed_requests;
          (*done_sp)(false, Reply{});
          return;
        }
        engine_.schedule_detached(backoff_delay(attempt_no),
                         [this, client, req, attempt_no, done_sp]() mutable {
                           ++stats_.retries;
                           if (tracer_ != nullptr) {
                             tracer_->instant(shard_track(shard_), "kv",
                                              "retry",
                                              {obs::arg("attempt",
                                                        attempt_no + 1)});
                           }
                           attempt(client, req, attempt_no + 1,
                                   std::move(*done_sp));
                         });
      });

  // Request travels client → store VM, the store applies the batch after
  // its service cost, then the reply travels back.
  network_.send(
      client, host_, request_bytes,
      [this, client, req, items, request_bytes, settled, done_sp,
       timeout_timer] {
        if (fault_hook_ != nullptr && fault_hook_->unavailable(shard_)) {
          // Outage window: the server swallows the request; the client's
          // timeout timer is what eventually notices.
          ++stats_.outage_drops;
          return;
        }
        SimDuration cost = service_cost(items, request_bytes);
        if (fault_hook_ != nullptr) cost += fault_hook_->extra_latency(shard_);
        engine_.schedule_detached(cost, [this, client, req, settled, done_sp,
                                timeout_timer] {
          if (*settled) return;  // client already gave up on this attempt
          Reply reply;
          std::size_t reply_bytes = 16;
          apply(*req, reply, reply_bytes);
          network_.send(
              host_, client, reply_bytes,
              [this, reply = std::move(reply), settled, done_sp,
               timeout_timer]() mutable {
                if (*settled) return;
                *settled = true;
                engine_.cancel(timeout_timer);
                (*done_sp)(true, std::move(reply));
              },
              net::MsgClass::Store);
        });
      },
      net::MsgClass::Store);
}

void Store::put(VmId client, std::string key, Bytes value, PutDone done) {
  std::vector<std::pair<std::string, Bytes>> kvs;
  kvs.emplace_back(std::move(key), std::move(value));
  put_batch(client, std::move(kvs), std::move(done));
}

void Store::put_batch(VmId client,
                      std::vector<std::pair<std::string, Bytes>> kvs,
                      PutDone done) {
  auto req = std::make_shared<Request>();
  req->op = Op::Put;
  req->kvs = std::move(kvs);
  const std::uint64_t span = begin_op_span("put", req->kvs.size());
  attempt(client, std::move(req), 1,
          [this, span, done = std::move(done)](bool ok, Reply) {
            end_op_span(span, ok);
            if (done) done(ok);
          });
}

void Store::get(VmId client, std::string key, GetDone done) {
  auto req = std::make_shared<Request>();
  req->op = Op::Get;
  req->key = std::move(key);
  const std::uint64_t span = begin_op_span("get", 1);
  attempt(client, std::move(req), 1,
          [this, span, done = std::move(done)](bool ok, Reply reply) mutable {
            end_op_span(span, ok);
            if (done) done(ok, std::move(reply.value));
          });
}

void Store::get_batch(VmId client, std::vector<std::string> keys,
                      MGetDone done) {
  auto req = std::make_shared<Request>();
  req->op = Op::MGet;
  req->keys = std::move(keys);
  const std::size_t n = req->keys.size();
  const std::uint64_t span = begin_op_span("mget", n);
  attempt(client, std::move(req), 1,
          [this, n, span, done = std::move(done)](bool ok,
                                                  Reply reply) mutable {
            end_op_span(span, ok);
            if (!ok) reply.values.assign(n, std::nullopt);
            if (done) done(ok, std::move(reply.values));
          });
}

void Store::del_batch(VmId client, std::vector<std::string> keys,
                      PutDone done) {
  auto req = std::make_shared<Request>();
  req->op = Op::MDel;
  req->keys = std::move(keys);
  const std::uint64_t span = begin_op_span("mdel", req->keys.size());
  attempt(client, std::move(req), 1,
          [this, span, done = std::move(done)](bool ok, Reply) {
            end_op_span(span, ok);
            if (done) done(ok);
          });
}

std::optional<Bytes> Store::peek(const std::string& key) const {
  if (auto it = data_.find(key); it != data_.end()) return it->second;
  return std::nullopt;
}

}  // namespace rill::kvstore
