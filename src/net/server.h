#ifndef ALPHASORT_NET_SERVER_H_
#define ALPHASORT_NET_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/options.h"
#include "io/env.h"
#include "net/quota.h"
#include "net/socket.h"
#include "svc/sort_service.h"

namespace alphasort {
namespace net {

// The networked front door to a SortService (docs/net.md).
//
// A NetServer owns one TCP listener, one SortService, and one tenant
// quota registry. Each accepted connection is served by its own thread
// (the paper's root/worker split puts all sorting parallelism inside
// the service's shared pools — a connection thread only shuttles bytes
// and blocks on IO, so thread-per-connection scales to the hundreds of
// connections the loadgen drives):
//
//   accept -> HELLO handshake -> { SUBMIT -> SortService::Submit ->
//   DATA frames feed the job's StreamRecordSource under quota (the
//   pipeline sorts the upload as it arrives — no input spool file) ->
//   DONE -> wait (answering STATUS, honouring CANCEL, noticing
//   disconnects) -> RESULT + sorted DATA stream }* -> close.
//
// Resource protection is layered, every layer speaking Unavailable:
//   * max_conns caps connection threads; excess connections get an
//     immediate RESULT{Unavailable} and a close.
//   * per-tenant token buckets (net/quota.h) cap ingest bytes; a tenant
//     over its bucket is rejected, not stalled.
//   * the SortService's global memory budget and bounded queue gate
//     admission exactly as for in-process callers.
//
// Input bytes never touch the server Env: they stream straight from
// the socket into the pipeline. Only the sorted output ("<data_root>/
// c<conn>-j<seq>.out") and the job's scratch live on disk, deleted when
// the result has been streamed back (or the stream aborts). A run that
// ends with conns_active == 0 must leave "<data_root>/" empty; the
// loadgen smoke gate checks exactly that.
struct NetServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = kernel-chosen; NetServer::port() reports it
  int max_conns = 256;

  // The arbitration layer the wire fronts for.
  svc::SortServiceOptions service;

  // Per-tenant ingest fairness.
  TenantQuotaOptions quota;

  // Env namespace for staged output files and job scratch. (The name
  // predates the spool-free ingest path; input is never written here.)
  std::string data_root = "net_spool";

  // Jobs whose end-to-end time (SUBMIT received -> sorted stream sent)
  // reaches this bound emit a svc.job.slow warning carrying the full
  // per-stage breakdown (obs::JobTimeline). 0 disables the check.
  uint64_t slow_job_threshold_us = 0;

  // Template for per-job SortOptions: io_chunk_bytes, run_size_records,
  // retry policy, etc. Paths, format, and memory_budget are overridden
  // per job from the SUBMIT frame; a SUBMIT budget of 0 inherits the
  // template's.
  SortOptions job_defaults;
};

struct NetServerStats {
  uint64_t conns_accepted = 0;
  uint64_t conns_rejected = 0;  // over max_conns
  uint64_t jobs_submitted = 0;  // reached SortService::Submit
  uint64_t jobs_completed = 0;  // OK result streamed back
  uint64_t jobs_failed = 0;     // any non-OK terminal result
  uint64_t quota_rejected = 0;
  uint64_t protocol_errors = 0;  // envelope or state-machine violations
  uint64_t bytes_rx = 0;         // DATA payload bytes received
  uint64_t bytes_tx = 0;         // DATA payload bytes sent
  // The most upload bytes any one job held in its ingest buffer at once;
  // at most kIngestBufferBytes, or one DATA frame if that is larger.
  uint64_t ingest_buffer_peak = 0;
  // Times a connection waiting on its sort woke up: once per frame that
  // arrived mid-job (STATUS, CANCEL) and once as the job settled. The
  // job rings the connection on completion, so an idle wait costs one
  // wakeup however long the sort runs.
  uint64_t sort_wait_wakeups = 0;
  int conns_active = 0;
  int jobs_inflight = 0;  // ingesting, sorting, or streaming back
};

// Capacity of a job's ingest buffer (the StreamRecordSource its DATA
// frames feed). A queued job's upload stalls here rather than sitting
// whole in the buffer as well as in the sort's record block.
constexpr size_t kIngestBufferBytes = size_t{1} << 20;

class NetServer {
 public:
  // `env` must outlive the server; all output and scratch IO goes
  // through it (an in-memory Env serves tests and CI).
  NetServer(Env* env, const NetServerOptions& options);

  // Stops and drains, like ~SortService.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Binds, listens, and starts the accept loop.
  Status Start();

  // Closes the listener and every live connection, then joins all
  // connection threads and drains the service. Idempotent.
  void Stop();

  // The bound port (after Start()).
  int port() const { return listener_.port(); }

  NetServerStats stats() const;
  svc::SortServiceStats service_stats() const { return service_.stats(); }

 private:
  class Connection;

  void AcceptLoop();
  // Moves finished connections out of conns_. The caller joins them
  // after releasing mu_: never Join() under mu_, which the connection
  // threads take on their way out.
  std::vector<std::unique_ptr<Connection>> TakeDoneConnsLocked();

  // Stats/instrument updates shared by connection threads; each keeps
  // stats_ and the net.* registry instruments in step under mu_.
  void NoteConnClosed();
  void NoteJobInflight(int delta);
  void NoteJobSubmitted();
  void NoteJobResult(bool ok);
  void NoteQuotaRejected();
  void NoteProtocolError();
  void NoteBytesRx(uint64_t n);
  void NoteBytesTx(uint64_t n);
  void NoteIngestBufferPeak(uint64_t bytes);
  void NoteSortWaitWakeup();

  Env* const env_;
  const NetServerOptions options_;
  svc::SortService service_;
  TenantQuotas quotas_;
  TcpListener listener_;

  mutable std::mutex mu_;
  bool started_ = false;
  bool stopping_ = false;
  uint64_t next_conn_id_ = 1;
  NetServerStats stats_;
  std::thread accept_thread_;
  std::map<uint64_t, std::unique_ptr<Connection>> conns_;
};

}  // namespace net
}  // namespace alphasort

#endif  // ALPHASORT_NET_SERVER_H_
