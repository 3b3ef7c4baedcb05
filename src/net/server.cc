#include "net/server.h"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/checksum.h"
#include "common/table.h"
#include "core/record_source.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace alphasort {
namespace net {

namespace {

// Registry instruments (docs/observability.md): gauges mirror live
// levels, counters accumulate. Per-job latency histograms (net.job.*_us,
// end-to-end and per-stage) are recorded via obs::RecordTimelineHistograms.
obs::Gauge* ConnsActive() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global()->GetGauge("net.conns_active");
  return g;
}
obs::Gauge* JobsInflight() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global()->GetGauge("net.jobs_inflight");
  return g;
}
obs::Counter* ConnsAccepted() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("net.conns_accepted");
  return c;
}
obs::Counter* ConnsRejected() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("net.conns_rejected");
  return c;
}
obs::Counter* JobsSubmitted() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("net.jobs_submitted");
  return c;
}
obs::Counter* JobsCompleted() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("net.jobs_completed");
  return c;
}
obs::Counter* JobsFailed() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("net.jobs_failed");
  return c;
}
obs::Counter* QuotaRejected() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("net.quota_rejected");
  return c;
}
obs::Counter* ProtocolErrors() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("net.protocol_errors");
  return c;
}
obs::Counter* BytesRx() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("net.bytes_rx");
  return c;
}
obs::Counter* BytesTx() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("net.bytes_tx");
  return c;
}
uint64_t NowUs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

uint8_t WireJobState(SortJobState s) {
  switch (s) {
    case SortJobState::kQueued:
      return 1;
    case SortJobState::kRunning:
      return 2;
    case SortJobState::kDone:
      return 3;
  }
  return 0;
}

// Output stream chunking: comfortably under kMaxFramePayload, large
// enough that frame overhead is noise.
constexpr size_t kStreamChunk = 256 * 1024;

}  // namespace

// One accepted connection: its socket, its thread, and the per-stream
// state machine. All sorting happens inside the shared SortService;
// this thread only shuttles bytes — DATA frames feed the job's
// StreamRecordSource directly, so the sort ingests the upload as it
// arrives (no input spool file) — and relays results.
class NetServer::Connection {
 public:
  Connection(NetServer* server, uint64_t id, TcpConn conn)
      : server_(server), id_(id), conn_(std::move(conn)) {}
  ~Connection() { Join(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void Start() {
    thread_ = std::thread([this] { Run(); });
  }

  // Thread-safe: unblocks any read/write so Run() exits promptly.
  // Defers the close itself to conn_'s destructor (after Join()) for
  // the same fd-ownership reasons as HalfClose() below.
  void Shutdown() { HalfClose(); }

  // Half-closes the socket when Run() is done with it, so the peer
  // sees EOF right away instead of waiting for this object to be
  // reaped. shutdown() rather than close() on purpose: the fd number
  // stays owned by conn_ (freed by the destructor), so a concurrent
  // Shutdown() from Stop() can never hit a reused descriptor.
  void HalfClose() {
    if (conn_.valid()) ::shutdown(conn_.fd(), SHUT_RDWR);
  }

  bool done() const { return done_.load(std::memory_order_acquire); }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  struct StreamState {
    SubmitFrame submit;
    std::string tenant;
    std::string out_path;
    // The job's input, fed frame by frame; the pipeline reads the other
    // end concurrently (backpressure: Append stalls the upload when
    // the sort falls behind, instead of buffering the whole stream).
    std::shared_ptr<StreamRecordSource> stream;
    uint64_t received = 0;
    uint32_t crc = 0;
    uint64_t charged = 0;   // quota bytes to refund on failure
    // True once the job's work is spent (a RESULT(OK) is imminent): the
    // quota charge is consumed, not refunded, even if the client then
    // vanishes mid stream-back.
    bool charge_consumed = false;
    uint64_t start_us = 0;   // SUBMIT receive time
    uint64_t ingest_us = 0;  // measured around IngestInput
  };

  void Run();
  Status ServeOneJob(FrameReader* reader, const Frame& submit_frame);
  Status IngestInput(FrameReader* reader, StreamState* st, SortJob* job,
                     bool* settled);
  Status RunAndStreamBack(FrameReader* reader, StreamState* st,
                          SortJob* job);
  Status DrainUntilDone(FrameReader* reader);
  void AnswerStatus(const Frame& frame, const SortJob* job);
  Status SendResult(uint64_t job_id, const Status& outcome,
                    uint64_t output_bytes, uint64_t elapsed_us,
                    const obs::JobTimeline* timeline = nullptr);
  void CleanupStream(StreamState* st);

  NetServer* const server_;
  const uint64_t id_;
  TcpConn conn_;
  std::string tenant_ = "default";
  uint64_t job_seq_ = 0;
  std::thread thread_;
  std::atomic<bool> done_{false};
};

void NetServer::Connection::Run() {
  conn_.SetNoDelay();
  ALPHASORT_LOG(kDebug, "svc.conn.open").U64("conn", id_);

  FrameReader reader(&conn_);
  Frame frame;

  // Handshake: the first frame must be a HELLO with our version.
  Status s = reader.Read(&frame);
  if (s.ok() && frame.type != FrameType::kHello) {
    s = Status::InvalidArgument(StrFormat(
        "expected HELLO, got %s", FrameTypeName(frame.type)));
  }
  HelloFrame hello;
  if (s.ok()) s = hello.Decode(frame.payload);
  if (!s.ok()) {
    // Best-effort rejection so the peer learns why before the close.
    server_->NoteProtocolError();
    ALPHASORT_LOG(kWarn, "svc.conn.error")
        .U64("conn", id_)
        .Str("status", s.ToString());
    SendResult(0, s, 0, 0);
    HalfClose();
    server_->NoteConnClosed();
    done_.store(true, std::memory_order_release);
    return;
  }
  if (!hello.tenant.empty()) tenant_ = hello.tenant;
  // Clock sync, one event per direction: record the client's send-time
  // reading now (closest to receipt), answer with our own fresh reading.
  // trace_merge pairs the two events to align the recorders' epochs.
  if (hello.now_us != 0) obs::TraceClockSync("net.clock_sync", hello.now_us);
  HelloFrame reply;
  reply.conn_id = id_;
  reply.now_us = obs::TraceRawNowUs();
  (void)WriteFrame(&conn_, FrameType::kHello, reply.Encode());
  ALPHASORT_LOG(kInfo, "svc.conn.hello")
      .U64("conn", id_)
      .Str("tenant", tenant_);

  // Steady state: jobs and queries until the peer hangs up.
  for (;;) {
    s = reader.Read(&frame);
    if (s.IsNotFound()) {
      s = Status::OK();  // orderly goodbye on a frame boundary
      break;
    }
    if (!s.ok()) break;
    if (frame.type == FrameType::kSubmit) {
      s = ServeOneJob(&reader, frame);
      if (s.IsNotFound()) {
        // The peer hung up mid-protocol (a vanished client, not a
        // malformed one); the job-level cleanup already ran.
        s = Status::OK();
        break;
      }
      if (!s.ok()) break;
    } else if (frame.type == FrameType::kStatus) {
      AnswerStatus(frame, nullptr);
    } else if (frame.type == FrameType::kCancel) {
      // No job in flight: nothing to cancel, by design not an error.
    } else {
      s = Status::InvalidArgument(StrFormat(
          "%s frame outside a data stream", FrameTypeName(frame.type)));
      break;
    }
  }

  if (!s.ok()) {
    server_->NoteProtocolError();
    ALPHASORT_LOG(kWarn, "svc.conn.error")
        .U64("conn", id_)
        .Str("status", s.ToString());
    SendResult(0, s, 0, 0);
  }
  ALPHASORT_LOG(kDebug, "svc.conn.close").U64("conn", id_);
  HalfClose();
  // done_ goes last: once it is set the accept thread may reap (join)
  // this thread, so nothing after it may wait on the server's mutex.
  server_->NoteConnClosed();
  done_.store(true, std::memory_order_release);
}

// A SUBMIT frame arrived; run the whole job protocol. A non-OK return
// tears the connection down (protocol violation or torn stream); quota
// and admission rejections RESULT back to the peer and return OK so the
// connection survives for the next job.
Status NetServer::Connection::ServeOneJob(FrameReader* reader,
                                          const Frame& submit_frame) {
  StreamState st;
  st.start_us = NowUs();
  st.tenant = tenant_;
  ALPHASORT_RETURN_IF_ERROR(st.submit.Decode(submit_frame.payload));
  // Everything this job touches on the server — ingest/wait/stream
  // spans, log events, and (via SortOptions) the pipeline itself —
  // carries the client-minted trace id from here on.
  obs::ScopedTraceId trace_scope(st.submit.trace_id);

  server_->NoteJobInflight(+1);
  struct InflightScope {
    NetServer* server;
    ~InflightScope() { server->NoteJobInflight(-1); }
  } inflight{server_};

  const uint64_t seq = ++job_seq_;
  st.out_path = StrFormat("%s/c%llu-j%llu.out",
                          server_->options_.data_root.c_str(),
                          static_cast<unsigned long long>(id_),
                          static_cast<unsigned long long>(seq));
  ALPHASORT_LOG(kInfo, "svc.conn.submit")
      .U64("conn", id_)
      .Str("tenant", tenant_)
      .U64("expected", st.submit.expected_bytes)
      .U64("budget", st.submit.memory_budget);

  // The tenant's quota is charged up front for the advertised size, so
  // an over-quota job is rejected before a byte is ingested. Streams
  // that understate expected_bytes are charged the excess per frame.
  if (st.submit.expected_bytes > 0) {
    if (Status q = server_->quotas_.Charge(tenant_, st.submit.expected_bytes,
                                           NowUs());
        !q.ok()) {
      server_->NoteQuotaRejected();
      ALPHASORT_LOG(kWarn, "svc.conn.reject")
          .U64("conn", id_)
          .Str("tenant", tenant_)
          .Str("reason", "quota")
          .U64("bytes", st.submit.expected_bytes);
      (void)SendResult(0, q, 0, NowUs() - st.start_us);
      return DrainUntilDone(reader);
    }
    st.charged = st.submit.expected_bytes;
  }

  // Every exit below — including mid-ingest disconnects and the
  // write-failure returns while streaming the result back to a client
  // that hung up — must release the output file and settle the quota
  // charge, or each failure leaks into data_root or the tenant's
  // bucket. The charge is refunded unless the job's work was actually
  // spent (charge_consumed flips just before a RESULT(OK)).
  struct StreamCleanup {
    Connection* conn;
    StreamState* st;
    ~StreamCleanup() { conn->CleanupStream(st); }
  } cleanup{this, &st};

  // The job is submitted *before* its input exists: DATA frames feed
  // the StreamRecordSource below while the pipeline QuickSorts what has
  // already arrived, so ingest and the sort's read pass overlap instead
  // of serializing through a spool file.
  SortOptions opts = server_->options_.job_defaults;
  opts.input_path.clear();
  st.stream = std::make_shared<StreamRecordSource>(kIngestBufferBytes);
  opts.source = [stream = st.stream]() -> std::shared_ptr<RecordSource> {
    return stream;
  };
  opts.output_path = st.out_path;
  opts.format =
      RecordFormat(st.submit.record_size, st.submit.key_size);
  if (st.submit.memory_budget > 0) {
    opts.memory_budget = st.submit.memory_budget;
  }
  opts.scratch_path = server_->options_.data_root + "/scratch";
  opts.trace_id = st.submit.trace_id;

  Result<SortJob> submitted = server_->service_.Submit(opts);
  if (!submitted.ok()) {
    // Admission backpressure (queue full) or invalid options: the
    // RESULT relays the code, the unsent upload is drained, and the
    // connection stays usable.
    ALPHASORT_LOG(kWarn, "svc.conn.reject")
        .U64("conn", id_)
        .Str("tenant", tenant_)
        .Str("reason", "admission")
        .Str("status", submitted.status().ToString());
    server_->NoteJobResult(false);
    (void)SendResult(0, submitted.status(), 0, NowUs() - st.start_us);
    return DrainUntilDone(reader);
  }
  SortJob job = std::move(submitted).value();
  server_->NoteJobSubmitted();
  // A job that ends without reading to EOF (a queued job reaped by its
  // deadline never opens the stream at all) must not leave the upload
  // blocked in Append on a reader that will never come.
  job.OnDone([stream = st.stream] {
    stream->Fail(Status::Aborted("job ended before reading its input"));
  });

  // Spans from here carry the service-assigned job id, so a trace
  // follows one request across accept/ingest/sort/stream-back.
  obs::ScopedJobId job_scope(job.id());

  bool settled = false;
  const uint64_t ingest_begin_us = NowUs();
  Status s = IngestInput(reader, &st, &job, &settled);
  st.ingest_us = NowUs() - ingest_begin_us;
  if (!s.ok()) {
    // Torn stream (mid-ingest disconnect) or protocol violation: poison
    // the input so the pipeline stops, reap the job, refund (via the
    // cleanup guard), drop the connection.
    st.stream->Fail(Status::Aborted("connection lost mid-upload"));
    job.Cancel();
    job.Wait();
    server_->NoteJobResult(false);
    ALPHASORT_LOG(kWarn, "svc.conn.eof_midingest")
        .U64("conn", id_)
        .U64("job", job.id());
    return s;
  }
  if (settled) {
    // IngestInput already reaped the job and sent the RESULT; the
    // connection stays usable for the next SUBMIT.
    return Status::OK();
  }
  return RunAndStreamBack(reader, &st, &job);
}

// Receives DATA frames into the job's StreamRecordSource until DONE.
// Sets *settled (with the job reaped and the RESULT already sent) for
// refusals and upload-time failures the connection survives; returns
// non-OK only for unrecoverable connection states (the caller reaps the
// job). On a plain OK return the upload is complete and verified, the
// stream is closed for writing, and the job is still in flight.
Status NetServer::Connection::IngestInput(FrameReader* reader,
                                          StreamState* st, SortJob* job,
                                          bool* settled) {
  *settled = false;
  obs::TraceSpan span("net.ingest", "net");

  // Reaps the job and RESULTs its (or the given) failure to the peer.
  auto settle = [&](Status outcome) {
    st->stream->Fail(outcome);
    job->Cancel();
    const SortResult& r = job->Wait();
    if (outcome.ok()) outcome = r.status;
    server_->NoteJobResult(false);
    (void)SendResult(job->id(), outcome, 0, NowUs() - st->start_us);
    *settled = true;
  };

  // Flips true when the pipeline stopped consuming (the job died:
  // invalid options discovered at open, deadline, service shutdown).
  // The remaining upload is read and discarded so the RESULT stays
  // deliverable, then the job's own status is reported at DONE.
  bool stream_dead = false;

  Frame frame;
  for (;;) {
    ALPHASORT_RETURN_IF_ERROR(reader->Read(&frame));
    switch (frame.type) {
      case FrameType::kData: {
        const uint64_t n = frame.payload.size();
        // Bytes past the advertised size charge quota as they arrive.
        const uint64_t prepaid = st->submit.expected_bytes > st->received
                                     ? st->submit.expected_bytes - st->received
                                     : 0;
        if (n > prepaid) {
          if (Status q = server_->quotas_.Charge(tenant_, n - prepaid,
                                                 NowUs());
              !q.ok()) {
            server_->NoteQuotaRejected();
            ALPHASORT_LOG(kWarn, "svc.conn.reject")
                .U64("conn", id_)
                .Str("tenant", tenant_)
                .Str("reason", "quota_midstream");
            settle(q);
            return DrainUntilDone(reader);
          }
          st->charged += n - prepaid;
        }
        st->crc = Crc32c(frame.payload.data(), frame.payload.size(), st->crc);
        st->received += n;
        server_->NoteBytesRx(n);
        // Bounded-buffer append: blocks while the sort falls behind, and
        // fails once the job is gone (its consumer closed the stream, or
        // the OnDone hook failed it).
        if (!stream_dead &&
            !st->stream->Append(frame.payload.data(), frame.payload.size())) {
          stream_dead = true;
        }
        break;
      }
      case FrameType::kDone: {
        DoneFrame done;
        ALPHASORT_RETURN_IF_ERROR(done.Decode(frame.payload));
        Status verdict;
        if (done.total_bytes != st->received) {
          verdict = Status::Corruption(StrFormat(
              "stream advertised %llu bytes, received %llu",
              static_cast<unsigned long long>(done.total_bytes),
              static_cast<unsigned long long>(st->received)));
        } else if (done.crc32c != st->crc) {
          verdict = Status::Corruption("input stream failed its CRC check");
        } else if (st->received == 0 ||
                   st->received % st->submit.record_size != 0) {
          verdict = Status::InvalidArgument(StrFormat(
              "%llu streamed bytes is not a positive multiple of the "
              "%u-byte record size",
              static_cast<unsigned long long>(st->received),
              st->submit.record_size));
        }
        if (!verdict.ok() || stream_dead) {
          settle(verdict);  // OK verdict reports the job's own failure
          return Status::OK();
        }
        st->stream->CloseWrite();
        return Status::OK();
      }
      case FrameType::kStatus:
        AnswerStatus(frame, job);
        break;
      case FrameType::kCancel:
        settle(Status::Aborted("cancelled during upload"));
        // A well-behaved canceller still ends the upload with DONE;
        // drain to that boundary so the connection stays reusable.
        return DrainUntilDone(reader);
      default:
        return Status::InvalidArgument(StrFormat(
            "%s frame inside a data stream", FrameTypeName(frame.type)));
    }
  }
}

// The upload has fully arrived and verified: answer STATUS and honour
// CANCEL while the job drains the stream and sorts, then stream the
// output back.
Status NetServer::Connection::RunAndStreamBack(FrameReader* reader,
                                               StreamState* st,
                                               SortJob* job_ptr) {
  SortJob& job = *job_ptr;
  const uint64_t wait_begin_us = NowUs();
  {
    obs::TraceSpan wait_span("net.sort_wait", "net");
    // One poll() on the socket and a doorbell the job rings as it
    // settles: frames are served as they arrive and completion is seen
    // at once, with no timer tick. The callback shares ownership of the
    // doorbell: it may run after this function has returned. Only if no
    // eventfd could be made does the wait fall back to a 20 ms tick.
    auto wake = std::make_shared<WakeFd>();
    job.OnDone([wake] { wake->Signal(); });
    const int timeout_ms = wake->fd() >= 0 ? -1 : 20;
    while (!job.TryWait()) {
      Frame frame;
      bool got = false;
      Status ps = reader->Poll(&frame, &got, timeout_ms, wake->fd());
      server_->NoteSortWaitWakeup();
      if (!ps.ok()) {
        // The client vanished mid-job: cancel, wait for the service to
        // reap it (scratch swept), clean the output, drop the conn.
        ALPHASORT_LOG(kWarn, "svc.conn.eof_midjob")
            .U64("conn", id_)
            .U64("job", job.id());
        job.Cancel();
        job.Wait();
        server_->NoteJobResult(false);
        return ps.IsNotFound() ? Status::OK() : ps;
      }
      if (!got) continue;
      if (frame.type == FrameType::kStatus) {
        AnswerStatus(frame, &job);
      } else if (frame.type == FrameType::kCancel) {
        job.Cancel();
      } else {
        job.Cancel();
        job.Wait();
        server_->NoteJobResult(false);
        return Status::InvalidArgument(StrFormat(
            "%s frame while a job is in flight", FrameTypeName(frame.type)));
      }
    }
  }

  const uint64_t wait_us = NowUs() - wait_begin_us;

  const SortResult& r = job.Wait();
  if (!r.status.ok()) {
    server_->NoteJobResult(false);
    ALPHASORT_LOG(kInfo, "svc.conn.result")
        .U64("conn", id_)
        .U64("job", job.id())
        .Str("status", r.status.ToString());
    (void)SendResult(job.id(), r.status, 0, NowUs() - st->start_us);
    return Status::OK();
  }

  // Success: the sorted bytes, DONE, then the terminal RESULT — last so
  // its elapsed_us and stage breakdown cover the stream-back. Socket
  // writes block when the client reads slowly — TCP backpressure is the
  // flow control. DONE carries the CRC the sort computed as it produced
  // the output, not a CRC of what is read back here: no second pass over
  // the bytes, and the client's check then also covers the write to
  // out_path and this re-read.
  Result<uint64_t> out_size = server_->env_->GetFileSize(st->out_path);
  if (!out_size.ok()) {
    server_->NoteJobResult(false);
    (void)SendResult(job.id(), out_size.status(), 0,
                     NowUs() - st->start_us);
    return Status::OK();
  }
  const uint64_t total = out_size.value();
  // The sort has run: the quota charge is consumed from here on, even if
  // the client disappears while the result streams back.
  st->charge_consumed = true;

  // A send that fails means the client hung up mid-stream
  // (EPIPE/ECONNRESET): like eof_midjob, a vanished peer rather than a
  // protocol error, so the connection just closes (Run treats NotFound
  // as a hang-up).
  auto hung_up = [&](const Status& why) {
    ALPHASORT_LOG(kWarn, "svc.conn.eof_streamback")
        .U64("conn", id_)
        .U64("job", job.id())
        .Str("status", why.ToString());
    return Status::NotFound("client hung up during stream-back");
  };
  // Every failed exit before the output is fully sent settles the job as
  // failed, once.
  auto fail = [&](Status why, bool peer_gone) {
    server_->NoteJobResult(false);
    return peer_gone ? hung_up(why) : why;
  };

  const uint64_t stream_begin_us = NowUs();
  {
    obs::TraceSpan stream_span("net.stream_back", "net");
    Result<std::unique_ptr<File>> out_file =
        server_->env_->OpenFile(st->out_path, OpenMode::kReadOnly);
    if (!out_file.ok()) return fail(out_file.status(), false);
    std::string chunk;
    uint64_t off = 0;
    while (off < total) {
      const size_t want =
          size_t(std::min<uint64_t>(kStreamChunk, total - off));
      chunk.resize(want);
      size_t got = 0;
      Status rs = out_file.value()->Read(off, want, chunk.data(), &got);
      if (rs.ok() && got != want) {
        rs = Status::IOError("short read streaming sorted output");
      }
      if (!rs.ok()) return fail(rs, false);
      if (Status ws = WriteFrame(&conn_, FrameType::kData, chunk);
          !ws.ok()) {
        return fail(ws, true);
      }
      off += want;
      server_->NoteBytesTx(want);
    }
    DoneFrame done;
    done.total_bytes = total;
    done.crc32c = r.metrics.output_crc32c;
    if (Status ws = WriteFrame(&conn_, FrameType::kDone, done.Encode());
        !ws.ok()) {
      return fail(ws, true);
    }
  }

  // Attribute the job's whole life before the terminal RESULT ships it.
  obs::JobTimeline timeline;
  timeline.job_id = job.id();
  timeline.trace_id = st->submit.trace_id;
  timeline.ingest_us = st->ingest_us;
  timeline.FillFromSortMetrics(r.metrics);
  timeline.DeriveQueue(wait_us);
  timeline.stream_us = NowUs() - stream_begin_us;
  timeline.e2e_us = NowUs() - st->start_us;
  // Count the job before the RESULT ships it, so a client that reads the
  // server's stats once its result arrives sees the job counted. The
  // output and its DONE are already sent: a RESULT the peer no longer
  // takes does not unmake the job.
  server_->NoteJobResult(true);
  if (Status ws = SendResult(job.id(), Status::OK(), total,
                             timeline.e2e_us, &timeline);
      !ws.ok()) {
    return hung_up(ws);
  }

  obs::RecordTimelineHistograms(timeline);
  obs::MaybeLogSlowJob(timeline,
                       server_->options_.slow_job_threshold_us);
  ALPHASORT_LOG(kInfo, "svc.conn.result")
      .U64("conn", id_)
      .U64("job", job.id())
      .Str("status", "OK")
      .U64("bytes", total)
      .U64("elapsed_us", timeline.e2e_us);
  return Status::OK();
}

// After a mid-stream rejection the peer may still be sending its DATA
// stream; reading (and discarding) until its DONE keeps the already-sent
// RESULT deliverable instead of getting torn down by a reset.
Status NetServer::Connection::DrainUntilDone(FrameReader* reader) {
  Frame frame;
  for (;;) {
    ALPHASORT_RETURN_IF_ERROR(reader->Read(&frame));
    if (frame.type == FrameType::kDone ||
        frame.type == FrameType::kCancel) {
      return Status::OK();
    }
    if (frame.type != FrameType::kData &&
        frame.type != FrameType::kStatus) {
      return Status::InvalidArgument(StrFormat(
          "%s frame while draining a rejected stream",
          FrameTypeName(frame.type)));
    }
  }
}

void NetServer::Connection::AnswerStatus(const Frame& frame,
                                         const SortJob* job) {
  StatusRequestFrame req;
  if (!req.Decode(frame.payload).ok()) return;
  StatusReplyFrame reply;
  if (job != nullptr) {
    reply.job_id = job->id();
    reply.job_state = WireJobState(job->state());
    const obs::JobProgress p = job->Progress();
    reply.job_permille = uint32_t(p.fraction * 1000.0);
  }
  const svc::SortServiceStats svc_stats = server_->service_.stats();
  reply.jobs_queued = uint64_t(svc_stats.queued);
  reply.jobs_running = uint64_t(svc_stats.running);
  reply.admitted_bytes = svc_stats.admitted_bytes;
  const NetServerStats net_stats = server_->stats();
  reply.conns_active = uint64_t(net_stats.conns_active);
  reply.net_jobs_inflight = uint64_t(net_stats.jobs_inflight);
  reply.quota_remaining = server_->quotas_.Remaining(tenant_, NowUs());
  (void)WriteFrame(&conn_, FrameType::kStatus, reply.Encode());
}

Status NetServer::Connection::SendResult(uint64_t job_id,
                                         const Status& outcome,
                                         uint64_t output_bytes,
                                         uint64_t elapsed_us,
                                         const obs::JobTimeline* timeline) {
  ResultFrame result;
  result.job_id = job_id;
  result.code = ResultFrame::CodeOf(outcome);
  result.message = outcome.message();
  result.output_bytes = output_bytes;
  result.elapsed_us = elapsed_us;
  if (timeline != nullptr) {
    result.ingest_us = timeline->ingest_us;
    result.queue_us = timeline->queue_us;
    result.sort_us = timeline->sort_us;
    result.merge_us = timeline->merge_us;
    result.stream_us = timeline->stream_us;
  }
  return WriteFrame(&conn_, FrameType::kResult, result.Encode());
}

void NetServer::Connection::CleanupStream(StreamState* st) {
  if (st->stream != nullptr) {
    // Belt and braces: if the job was reaped without ever opening its
    // source, a producer-side close here frees the buffered chunks. A
    // live pipeline was already handled (CloseWrite at DONE or Fail on
    // the error paths) — this is a no-op then.
    st->stream->CloseWrite();
    server_->NoteIngestBufferPeak(st->stream->peak_buffered());
    st->stream.reset();
  }
  if (!st->out_path.empty()) (void)server_->env_->DeleteFile(st->out_path);
  if (!st->charge_consumed && st->charged > 0) {
    server_->quotas_.Refund(st->tenant, st->charged);
    st->charged = 0;
  }
}

NetServer::NetServer(Env* env, const NetServerOptions& options)
    : env_(env),
      options_(options),
      service_(env, options.service),
      quotas_(options.quota) {}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return Status::InvalidArgument("server already started");
  }
  ALPHASORT_RETURN_IF_ERROR(env_->CreateDir(options_.data_root));
  ALPHASORT_RETURN_IF_ERROR(
      listener_.Listen(options_.host, options_.port,
                       std::max(16, options_.max_conns)));
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
    stopping_ = false;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  ALPHASORT_LOG(kInfo, "svc.net.start")
      .Str("host", options_.host)
      .I64("port", port())
      .I64("max_conns", options_.max_conns);
  return Status::OK();
}

void NetServer::AcceptLoop() {
  for (;;) {
    Result<TcpConn> accepted = listener_.Accept();
    if (!accepted.ok()) return;  // listener closed: shutting down

    // Declared before the lock, so the finished connections are joined
    // (destroyed) only after mu_ is released: a connection thread may
    // still be taking mu_ on its way out.
    std::vector<std::unique_ptr<Connection>> finished;
    std::unique_lock<std::mutex> lock(mu_);
    finished = TakeDoneConnsLocked();
    if (stopping_) return;
    if (stats_.conns_active >= options_.max_conns) {
      // Connection-level backpressure: a full house answers with the
      // same Unavailable the admission queue uses, then hangs up.
      ++stats_.conns_rejected;
      ConnsRejected()->Add();
      lock.unlock();
      TcpConn conn = std::move(accepted).value();
      ResultFrame result;
      result.code = ResultFrame::CodeOf(
          Status::Unavailable("server at connection capacity"));
      result.message = "server at connection capacity; back off and retry";
      (void)WriteFrame(&conn, FrameType::kResult, result.Encode());
      ALPHASORT_LOG(kWarn, "svc.conn.reject")
          .Str("reason", "conn_capacity");
      continue;
    }
    const uint64_t id = next_conn_id_++;
    ++stats_.conns_accepted;
    ++stats_.conns_active;
    ConnsAccepted()->Add();
    ConnsActive()->Set(stats_.conns_active);
    auto conn = std::make_unique<Connection>(this, id,
                                             std::move(accepted).value());
    Connection* raw = conn.get();
    conns_.emplace(id, std::move(conn));
    lock.unlock();
    raw->Start();
  }
}

std::vector<std::unique_ptr<NetServer::Connection>>
NetServer::TakeDoneConnsLocked() {
  std::vector<std::unique_ptr<Connection>> done;
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->second->done()) {
      done.push_back(std::move(it->second));
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
  return done;
}

void NetServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;
  }
  listener_.Close();
  if (accept_thread_.joinable()) accept_thread_.join();

  // Unblock every connection thread, then join them all.
  std::map<uint64_t, std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, conn] : conns_) conn->Shutdown();
    conns.swap(conns_);
  }
  for (auto& [id, conn] : conns) conn->Join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = false;
  }
  ALPHASORT_LOG(kInfo, "svc.net.stop")
      .U64("conns", stats_.conns_accepted)
      .U64("jobs", stats_.jobs_completed);
}

NetServerStats NetServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void NetServer::NoteConnClosed() {
  std::lock_guard<std::mutex> lock(mu_);
  --stats_.conns_active;
  ConnsActive()->Set(stats_.conns_active);
}

void NetServer::NoteJobInflight(int delta) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.jobs_inflight += delta;
  JobsInflight()->Set(stats_.jobs_inflight);
}

void NetServer::NoteJobSubmitted() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.jobs_submitted;
  JobsSubmitted()->Add();
}

void NetServer::NoteJobResult(bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ok) {
    ++stats_.jobs_completed;
    JobsCompleted()->Add();
  } else {
    ++stats_.jobs_failed;
    JobsFailed()->Add();
  }
}

void NetServer::NoteQuotaRejected() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.quota_rejected;
  QuotaRejected()->Add();
}

void NetServer::NoteProtocolError() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.protocol_errors;
  ProtocolErrors()->Add();
}

void NetServer::NoteBytesRx(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.bytes_rx += n;
  BytesRx()->Add(n);
}

void NetServer::NoteBytesTx(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.bytes_tx += n;
  BytesTx()->Add(n);
}

void NetServer::NoteIngestBufferPeak(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.ingest_buffer_peak = std::max(stats_.ingest_buffer_peak, bytes);
}

void NetServer::NoteSortWaitWakeup() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.sort_wait_wakeups;
}

}  // namespace net
}  // namespace alphasort
