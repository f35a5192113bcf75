#include "svc/server.h"

#include <cerrno>
#include <cstring>
#include <future>
#include <limits>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "support/error.h"
#include "svc/wire.h"

namespace r2r::svc {

using support::ErrorKind;
using support::fail;

/// One admitted job waiting for a worker slot: the spec, its cache key
/// (empty when not cacheable), and the promise its client thread blocks on.
struct Server::PendingJob {
  JobSpec spec;
  std::string key;
  std::promise<JobResult> promise;
};

/// One live connection. The fd is owned jointly under clients_mutex_: the
/// client thread closes it (and marks it -1) when its read loop ends;
/// wait() shuts down any still-open fd to unblock those reads. Both sides
/// touch the fd only under the mutex, so a closed fd is never shut down
/// after the number is reused.
struct Server::ClientConn {
  int fd = -1;
  std::thread thread;
};

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_capacity),
      queue_(config_.queue_depth),
      hits_(obs::Metrics::instance().counter("r2rd.cache.hits")),
      misses_(obs::Metrics::instance().counter("r2rd.cache.misses")),
      submitted_(obs::Metrics::instance().counter("r2rd.jobs.submitted")),
      completed_(obs::Metrics::instance().counter("r2rd.jobs.completed")),
      rejected_(obs::Metrics::instance().counter("r2rd.jobs.rejected")),
      respawned_(obs::Metrics::instance().counter("r2rd.workers.respawned")),
      depth_gauge_(obs::Metrics::instance().gauge("r2rd.queue.depth")) {}

Server::~Server() {
  if (running_.load() || accept_thread_.joinable()) {
    request_shutdown();
    wait();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!config_.socket_path.empty()) ::unlink(config_.socket_path.c_str());
}

void Server::start() {
  // Pre-warm while still single-threaded: the initial fork happens before
  // any server thread (or the listen socket) exists.
  pool_ = std::make_unique<WorkerPool>(config_.workers);

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof addr.sun_path) {
    fail(ErrorKind::kInvalidArgument,
         "r2rd: socket path too long: " + config_.socket_path);
  }
  std::memcpy(addr.sun_path, config_.socket_path.c_str(),
              config_.socket_path.size() + 1);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    fail(ErrorKind::kExecution,
         std::string("r2rd: socket() failed: ") + std::strerror(errno));
  }
  ::unlink(config_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    fail(ErrorKind::kExecution, "r2rd: cannot listen on " + config_.socket_path + ": " +
                                    std::strerror(errno));
  }

  running_.store(true);
  for (unsigned slot = 0; slot < pool_->size(); ++slot) {
    slot_threads_.emplace_back([this, slot] { slot_loop(slot); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::request_shutdown() {
  draining_.store(true);
  queue_.close();
  std::lock_guard<std::mutex> lock(drain_mutex_);
  drained_.notify_all();
}

void Server::finish_drain() {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drained_.wait(lock, [this] { return jobs_pending_.load() == 0; });
}

void Server::stop_accepting() {
  if (running_.exchange(false)) {
    // shutdown() does not reliably unblock accept() on an AF_UNIX
    // *listening* socket (Linux reports ENOTCONN); wake the accept loop
    // with a throwaway self-connection instead. Either the shutdown took
    // (connect refuses, accept already returned) or it didn't (connect
    // lands, accept returns a fd the loop discards) — both paths exit.
    ::shutdown(listen_fd_, SHUT_RDWR);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, config_.socket_path.c_str(),
                config_.socket_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0) {
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
      ::close(fd);
    }
  }
}

void Server::wait() {
  // A drain begun locally (request_shutdown + wait, the destructor path)
  // has no shutdown-op handler to complete the stop — do it here. In the
  // normal flow draining_ is still false at this point and the handler
  // thread stops the accept loop after its response.
  if (draining_.load()) {
    finish_drain();
    stop_accepting();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& thread : slot_threads_) {
    if (thread.joinable()) thread.join();
  }
  slot_threads_.clear();
  // No new connections can arrive now. Unblock any client thread still
  // parked in read_message (an idle status poller, a peer that never
  // closed), then join them all.
  {
    std::lock_guard<std::mutex> lock(clients_mutex_);
    for (const auto& client : clients_) {
      if (client->fd >= 0) ::shutdown(client->fd, SHUT_RDWR);
    }
  }
  for (;;) {
    std::unique_ptr<ClientConn> client;
    {
      std::lock_guard<std::mutex> lock(clients_mutex_);
      if (clients_.empty()) break;
      client = std::move(clients_.back());
      clients_.pop_back();
    }
    if (client->thread.joinable()) client->thread.join();
  }
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listen socket shut down (or broken): stop accepting
    }
    if (!running_.load()) {
      ::close(fd);
      break;
    }
    // Entries are stable unique_ptrs (the vector only mutates under the
    // mutex), so the raw pointer outlives the thread.
    std::lock_guard<std::mutex> lock(clients_mutex_);
    auto conn = std::make_unique<ClientConn>();
    conn->fd = fd;
    ClientConn* raw = conn.get();
    clients_.push_back(std::move(conn));
    raw->thread = std::thread([this, raw] { handle_client(raw); });
  }
}

void Server::slot_loop(unsigned slot) {
  while (auto pending = queue_.pop()) {
    depth_gauge_.set(static_cast<std::int64_t>(queue_.depth()));
    const unsigned respawns_before = pool_->respawns();
    JobResult result = pool_->run_on(slot, (*pending)->spec);
    respawned_.add(pool_->respawns() - respawns_before);
    if (!result.infra && !(*pending)->key.empty()) {
      cache_.insert((*pending)->key, result);
    }
    completed_.add(1);
    (*pending)->promise.set_value(std::move(result));
    jobs_pending_.fetch_sub(1);
    {
      std::lock_guard<std::mutex> lock(drain_mutex_);
      drained_.notify_all();
    }
  }
}

Message Server::handle_submit(const Message& request) {
  Message response;
  if (draining_.load()) {
    response.set("ok", "0");
    response.set("draining", "1");
    response.set("exit", std::to_string(kInfraExitCode));
    response.set("error", "r2rd is draining and refuses new jobs");
    return response;
  }
  JobSpec spec = JobSpec::from_message(request);
  const auto priority = static_cast<int>(
      request.get_u64_or("priority", 0, std::numeric_limits<int>::max()));
  auto pending = std::make_shared<PendingJob>();
  pending->spec = std::move(spec);
  if (pending->spec.cacheable()) {
    pending->key = pending->spec.cache_key();
    if (const auto cached = cache_.lookup(pending->key)) {
      hits_.add(1);
      response = cached->to_message();
      response.set("ok", "1");
      response.set("cached", "1");
      response.set("key", pending->key);
      return response;
    }
    misses_.add(1);
  }
  submitted_.add(1);
  std::future<JobResult> future = pending->promise.get_future();
  jobs_pending_.fetch_add(1);
  const std::string key = pending->key;
  if (!queue_.try_push(std::move(pending), priority)) {
    jobs_pending_.fetch_sub(1);
    rejected_.add(1);
    response.set("ok", "0");
    response.set(draining_.load() ? "draining" : "busy", "1");
    response.set("exit", std::to_string(kInfraExitCode));
    response.set("error", draining_.load()
                              ? "r2rd is draining and refuses new jobs"
                              : "r2rd queue is full (backpressure); retry later");
    return response;
  }
  depth_gauge_.set(static_cast<std::int64_t>(queue_.depth()));
  const JobResult result = future.get();
  response = result.to_message();
  response.set("ok", "1");
  response.set("cached", "0");
  response.set("key", key);
  return response;
}

Message Server::handle_status() {
  Message response;
  response.set("ok", "1");
  response.set("draining", draining_.load() ? "1" : "0");
  response.set_u64("workers", pool_->size());
  response.set_u64("queue_depth", queue_.depth());
  response.set_u64("queue_capacity", config_.queue_depth);
  response.set_u64("cache_entries", cache_.size());
  response.set_u64("cache_hits", hits_.value());
  response.set_u64("cache_misses", misses_.value());
  response.set_u64("jobs_submitted", submitted_.value());
  response.set_u64("jobs_completed", completed_.value());
  response.set_u64("jobs_rejected", rejected_.value());
  response.set_u64("workers_respawned", respawned_.value());
  return response;
}

void Server::handle_client(ClientConn* conn) {
  const int fd = conn->fd;
  for (;;) {
    std::optional<Message> request;
    try {
      request = read_message(fd);
    } catch (const std::exception&) {
      break;  // torn frame or reset: drop the connection
    }
    if (!request.has_value()) break;  // clean close
    Message response;
    bool stop_after_response = false;
    try {
      const std::string op = request->get_or("op", "");
      if (op == "submit") {
        response = handle_submit(*request);
      } else if (op == "status") {
        response = handle_status();
      } else if (op == "shutdown") {
        request_shutdown();
        finish_drain();
        response = handle_status();
        response.set("ok", "1");
        response.set("drained", "1");
        stop_after_response = true;
      } else {
        response.set("ok", "0");
        response.set("exit", "2");
        response.set("error", "r2rd: unknown op '" + op + "'");
      }
    } catch (const std::exception& error) {
      response = Message();
      response.set("ok", "0");
      response.set("exit", std::to_string(kInfraExitCode));
      response.set("error", error.what());
    }
    try {
      write_message(fd, response);
    } catch (const std::exception&) {
      if (stop_after_response) stop_accepting();
      break;
    }
    if (stop_after_response) {
      // The drain summary is on the wire; now the daemon may stop.
      stop_accepting();
      break;
    }
  }
  std::lock_guard<std::mutex> lock(clients_mutex_);
  ::close(conn->fd);
  conn->fd = -1;
}

}  // namespace r2r::svc
