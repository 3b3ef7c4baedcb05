// End-to-end tests for the networked sort service (net/server.h +
// net/client.h) over real loopback sockets and an in-memory Env: jobs
// sort and verify, connections survive well-delivered rejections
// (quota, capacity, bad DONE), mid-stream disconnects leak nothing,
// STATUS/CANCEL interleave with an in-flight upload, protocol
// violations (version skew, flipped CRCs) close the connection with a
// clean RESULT and a counted protocol error, a job's ingest buffer stays
// within its bound, the stream-back CRC is the sort's own, and
// connection churn cannot deadlock the accept loop.

#include "net/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/checksum.h"
#include "common/table.h"
#include "core/sorter.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/exposition.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "record/generator.h"
#include "tests/test_flight.h"

namespace alphasort {
namespace net {
namespace {

[[maybe_unused]] const bool kFlightInstalled =
    test_flight::Install("net_service_test");

constexpr uint64_t kMB = 1ull << 20;

// A small server over a fresh MemEnv; every test gets its own.
class NetServiceTest : public ::testing::Test {
 protected:
  // With a `plan`, the server's Env injects its faults; env_ stays the
  // MemEnv underneath, so residue checks see the real files.
  void StartServer(NetServerOptions opts, const FaultPlan* plan = nullptr) {
    env_ = NewMemEnv();
    Env* server_env = env_.get();
    if (plan != nullptr) {
      fault_env_ = std::make_unique<FaultInjectionEnv>(env_.get());
      fault_env_->SetPlan(*plan);
      server_env = fault_env_.get();
    }
    opts.port = 0;
    server_ = std::make_unique<NetServer>(server_env, opts);
    ASSERT_TRUE(server_->Start().ok());
  }

  static NetServerOptions DefaultOptions() {
    NetServerOptions opts;
    opts.service.memory_budget = 64 * kMB;
    opts.service.max_running = 2;
    opts.service.max_queued = 64;
    opts.service.num_workers = 2;
    opts.quota.capacity_bytes = 64 * kMB;
    opts.quota.refill_bytes_per_s = 64 * kMB;
    opts.job_defaults.io_chunk_bytes = 64 * 1024;
    opts.job_defaults.run_size_records = 4096;
    opts.job_defaults.memory_budget = 8 * kMB;
    return opts;
  }

  void StartDefaultServer() { StartServer(DefaultOptions()); }

  int port() const { return server_->port(); }

  // Waits until the server has counted `want` completed jobs. A client
  // whose RESULT has arrived finds its job counted already; the wait
  // covers tests that stop reading before the RESULT.
  void WaitForCompleted(uint64_t want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server_->stats().jobs_completed < want &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(want, server_->stats().jobs_completed);
  }

  // Spins until the server has fully retired every connection and job,
  // then asserts the data namespace is empty (MemEnv is flat, so a
  // prefix listing sees every output and scratch file ever left behind).
  void ExpectNoResidue() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    while (std::chrono::steady_clock::now() < deadline) {
      const NetServerStats s = server_->stats();
      const svc::SortServiceStats svc = server_->service_stats();
      if (s.conns_active == 0 && s.jobs_inflight == 0 && svc.queued == 0 &&
          svc.running == 0 && svc.admitted_bytes == 0) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const NetServerStats s = server_->stats();
    EXPECT_EQ(0, s.conns_active);
    EXPECT_EQ(0, s.jobs_inflight);
    std::vector<std::string> leaked;
    ASSERT_TRUE(env_->ListFiles("net_spool/", &leaked).ok());
    EXPECT_TRUE(leaked.empty())
        << leaked.size() << " file(s) leaked, first: " << leaked[0];
  }

  std::vector<char> MakeRecords(uint64_t count, uint64_t seed = 1) {
    RecordGenerator gen(kDatamationFormat, seed);
    return gen.Generate(KeyDistribution::kUniform, count);
  }

  // Full client-side verification: length, key order, permutation.
  void ExpectSorted(const std::vector<char>& in, const std::string& out) {
    const RecordFormat format = kDatamationFormat;
    ASSERT_EQ(in.size(), out.size());
    const size_t r = format.record_size;
    MultisetFingerprint in_fp, out_fp;
    for (size_t off = 0; off < in.size(); off += r) {
      in_fp.Add(in.data() + off, r);
    }
    for (size_t off = 0; off < out.size(); off += r) {
      out_fp.Add(out.data() + off, r);
      if (off > 0) {
        ASSERT_LE(format.CompareKeys(out.data() + off - r, out.data() + off),
                  0)
            << "keys out of order at record " << off / r;
      }
    }
    EXPECT_TRUE(in_fp == out_fp) << "output is not a permutation";
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<FaultInjectionEnv> fault_env_;
  std::unique_ptr<NetServer> server_;
};

// Raw-frame helpers for the tests that speak the protocol by hand.
Status ExpectFrame(FrameReader* reader, FrameType want, Frame* out) {
  ALPHASORT_RETURN_IF_ERROR(reader->Read(out));
  if (out->type != want) {
    return Status::Corruption(StrFormat("expected %s frame, got %s",
                                        FrameTypeName(want),
                                        FrameTypeName(out->type)));
  }
  return Status::OK();
}

// v2 success ordering: the sorted DATA...DONE stream arrives first and
// the terminal RESULT last (so its elapsed_us and stage breakdown cover
// the stream-back). Drains the stream, then decodes the RESULT.
Status ReadSortedStreamThenResult(FrameReader* reader, uint64_t* streamed,
                                  ResultFrame* result) {
  *streamed = 0;
  Frame f;
  for (;;) {
    ALPHASORT_RETURN_IF_ERROR(reader->Read(&f));
    if (f.type == FrameType::kData) {
      *streamed += f.payload.size();
      continue;
    }
    if (f.type == FrameType::kDone) break;
    return Status::Corruption(
        StrFormat("expected DATA/DONE in the sorted stream, got %s",
                  FrameTypeName(f.type)));
  }
  ALPHASORT_RETURN_IF_ERROR(ExpectFrame(reader, FrameType::kResult, &f));
  return result->Decode(f.payload);
}

// HELLO handshake on a raw connection; returns the reader.
std::unique_ptr<FrameReader> RawHello(TcpConn* conn,
                                      const std::string& tenant) {
  HelloFrame hello;
  hello.tenant = tenant;
  EXPECT_TRUE(WriteFrame(conn, FrameType::kHello, hello.Encode()).ok());
  auto reader = std::make_unique<FrameReader>(conn);
  Frame f;
  EXPECT_TRUE(ExpectFrame(reader.get(), FrameType::kHello, &f).ok());
  HelloFrame reply;
  EXPECT_TRUE(reply.Decode(f.payload).ok());
  EXPECT_NE(uint64_t(0), reply.conn_id);
  return reader;
}

TEST_F(NetServiceTest, SortsOneJobEndToEnd) {
  StartDefaultServer();
  SortClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port(), "t0").ok());

  const std::vector<char> data = MakeRecords(2000);
  std::string sorted;
  NetSortOutcome outcome;
  SubmitSpec spec;
  ASSERT_TRUE(
      client.SubmitSort(spec, data.data(), data.size(), &sorted, &outcome)
          .ok());
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(data.size(), outcome.output_bytes);
  EXPECT_GT(outcome.job_id, uint64_t(0));
  ExpectSorted(data, sorted);

  WaitForCompleted(1);
  const NetServerStats s = server_->stats();
  EXPECT_EQ(uint64_t(0), s.jobs_failed);
  EXPECT_EQ(uint64_t(0), s.protocol_errors);

  client.Close();
  ExpectNoResidue();
}

// A client whose RESULT has arrived finds its job settled everywhere:
// the server counts the job before it sends the RESULT, and the service
// settles the job before the server's sort wait wakes. Read right after
// each job returns, with no wait.
TEST_F(NetServiceTest, ResultArrivesAfterTheJobIsCounted) {
  StartDefaultServer();
  SortClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port(), "t0").ok());

  const std::vector<char> data = MakeRecords(2000);
  for (uint64_t i = 1; i <= 20; ++i) {
    std::string sorted;
    NetSortOutcome outcome;
    SubmitSpec spec;
    ASSERT_TRUE(
        client.SubmitSort(spec, data.data(), data.size(), &sorted, &outcome)
            .ok());
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    const NetServerStats s = server_->stats();
    EXPECT_EQ(i, s.jobs_completed) << "job " << i;
    EXPECT_EQ(uint64_t(0), s.jobs_failed);
    const svc::SortServiceStats svc = server_->service_stats();
    EXPECT_EQ(i, svc.completed) << "job " << i;
    EXPECT_EQ(0, svc.running);
    EXPECT_EQ(uint64_t(0), svc.admitted_bytes);
  }

  client.Close();
  ExpectNoResidue();
}

// The spool-free path must be invisible in the output: a job streamed
// over the wire produces exactly the bytes a local file-based sort of
// the same input produces, and no input spool file (`c*-j*.in`) ever
// materializes in the server's data namespace — the upload feeds the
// pipeline directly.
TEST_F(NetServiceTest, StreamedJobMatchesFileSortByteForByteNoSpool) {
  StartDefaultServer();
  const std::vector<char> data = MakeRecords(3000);

  // Local reference: the classic file-in/file-out sort on the server's
  // own Env, with the server's job defaults.
  std::string reference;
  {
    ASSERT_TRUE(env_->WriteStringToFile(
                        "ref.in", std::string(data.data(), data.size()))
                    .ok());
    SortOptions opts;
    opts.input_path = "ref.in";
    opts.output_path = "ref.out";
    opts.io_chunk_bytes = 64 * 1024;
    opts.run_size_records = 4096;
    opts.memory_budget = 8 * kMB;
    Sorter sorter(env_.get());
    SortJob job = sorter.Start(opts);
    ASSERT_TRUE(job.Wait().status.ok()) << job.Wait().status.ToString();
    Result<std::string> out = env_->ReadFileToString("ref.out");
    ASSERT_TRUE(out.ok());
    reference = std::move(out).value();
    ASSERT_TRUE(env_->DeleteFile("ref.in").ok());
    ASSERT_TRUE(env_->DeleteFile("ref.out").ok());
  }

  // Streamed submission, by hand so we can look for a spool mid-upload.
  Result<TcpConn> conn = TcpConnect("127.0.0.1", port());
  ASSERT_TRUE(conn.ok());
  auto reader = RawHello(&conn.value(), "t0");
  SubmitFrame submit;
  submit.expected_bytes = data.size();
  ASSERT_TRUE(
      WriteFrame(&conn.value(), FrameType::kSubmit, submit.Encode()).ok());

  const size_t half = (data.size() / 2) / 100 * 100;
  ASSERT_TRUE(WriteFrame(&conn.value(), FrameType::kData,
                         std::string(data.data(), half))
                  .ok());
  // Mid-upload: the job is ingesting, yet nothing input-shaped exists on
  // disk. (Scratch runs and the output file are legitimate residents.)
  {
    std::vector<std::string> files;
    ASSERT_TRUE(env_->ListFiles("net_spool/", &files).ok());
    for (const std::string& f : files) {
      EXPECT_FALSE(f.size() >= 3 &&
                   f.compare(f.size() - 3, 3, ".in") == 0)
          << "input spool file materialized: " << f;
    }
  }
  ASSERT_TRUE(WriteFrame(&conn.value(), FrameType::kData,
                         std::string(data.data() + half,
                                     data.size() - half))
                  .ok());
  DoneFrame done;
  done.total_bytes = data.size();
  done.crc32c = Crc32c(data.data(), data.size());
  ASSERT_TRUE(
      WriteFrame(&conn.value(), FrameType::kDone, done.Encode()).ok());

  // Accumulate the sorted stream and compare to the reference bytes.
  std::string streamed;
  Frame f;
  for (;;) {
    ASSERT_TRUE(reader->Read(&f).ok());
    if (f.type == FrameType::kData) {
      streamed.append(f.payload);
      continue;
    }
    ASSERT_EQ(FrameType::kDone, f.type);
    break;
  }
  ResultFrame result;
  ASSERT_TRUE(ExpectFrame(reader.get(), FrameType::kResult, &f).ok());
  ASSERT_TRUE(result.Decode(f.payload).ok());
  ASSERT_TRUE(result.ToStatus().ok()) << result.ToStatus().ToString();
  EXPECT_EQ(reference.size(), streamed.size());
  EXPECT_EQ(reference, streamed) << "streamed output differs from the "
                                    "file-based sort of the same input";

  conn.value().Close();
  ExpectNoResidue();
}

TEST_F(NetServiceTest, ReusesOneConnectionForManyJobs) {
  StartDefaultServer();
  SortClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port(), "t0").ok());
  for (int i = 0; i < 4; ++i) {
    const std::vector<char> data = MakeRecords(500 + uint64_t(i) * 100,
                                               uint64_t(i) + 1);
    std::string sorted;
    NetSortOutcome outcome;
    ASSERT_TRUE(client
                    .SubmitSort(SubmitSpec(), data.data(), data.size(),
                                &sorted, &outcome)
                    .ok())
        << "job " << i;
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    ExpectSorted(data, sorted);
  }
  WaitForCompleted(4);
  EXPECT_EQ(uint64_t(1), server_->stats().conns_accepted);
  client.Close();
  ExpectNoResidue();
}

TEST_F(NetServiceTest, QuotaRejectionIsUnavailableAndConnSurvives) {
  NetServerOptions opts;
  opts.service.memory_budget = 64 * kMB;
  opts.service.max_running = 2;
  opts.service.num_workers = 2;
  opts.quota.capacity_bytes = 64 * 1024;  // one small job's worth
  opts.quota.refill_bytes_per_s = 10 * kMB;  // refills fast between jobs
  opts.job_defaults.memory_budget = 8 * kMB;
  StartServer(opts);

  SortClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port(), "greedy").ok());

  // 2000 records = 200KB, over the 64KB bucket: the up-front charge for
  // expected_bytes must reject with Unavailable, not stall the tenant.
  const std::vector<char> big = MakeRecords(2000);
  std::string sorted;
  NetSortOutcome outcome;
  ASSERT_TRUE(
      client.SubmitSort(SubmitSpec(), big.data(), big.size(), &sorted,
                        &outcome)
          .ok());
  EXPECT_TRUE(outcome.status.IsUnavailable()) << outcome.status.ToString();
  EXPECT_EQ(uint64_t(1), server_->stats().quota_rejected);

  // The rejection was well-delivered: the same connection carries a
  // within-quota job to completion.
  const std::vector<char> small = MakeRecords(300, 7);
  ASSERT_TRUE(
      client.SubmitSort(SubmitSpec(), small.data(), small.size(), &sorted,
                        &outcome)
          .ok());
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  ExpectSorted(small, sorted);

  client.Close();
  ExpectNoResidue();
}

TEST_F(NetServiceTest, MidStreamDisconnectLeaksNothing) {
  StartDefaultServer();
  {
    Result<TcpConn> conn = TcpConnect("127.0.0.1", port());
    ASSERT_TRUE(conn.ok());
    auto reader = RawHello(&conn.value(), "dropper");

    SubmitFrame submit;
    submit.expected_bytes = 2000 * 100;
    ASSERT_TRUE(
        WriteFrame(&conn.value(), FrameType::kSubmit, submit.Encode()).ok());
    const std::vector<char> data = MakeRecords(2000);
    // Half the stream, then vanish.
    ASSERT_TRUE(WriteFrame(&conn.value(), FrameType::kData,
                           std::string(data.data(), data.size() / 2))
                    .ok());
    conn.value().Close();
  }
  // The connection thread must notice, refund the quota charge, poison
  // the half-fed stream (reaping the in-flight job), and retire — with
  // nothing left behind.
  ExpectNoResidue();
  EXPECT_EQ(uint64_t(0), server_->stats().jobs_completed);
}

// A client that reads the first DATA frame of its sorted stream and then
// hangs up leaves the server blocked mid-send: the output is several
// times what the loopback socket buffers hold. The failed send is a
// vanished peer, not a protocol error, and the job is settled once.
TEST_F(NetServiceTest, HangUpDuringStreamBackSettlesTheJob) {
  StartDefaultServer();
  const std::vector<char> data = MakeRecords(240000);  // 24 MB
  {
    Result<TcpConn> conn = TcpConnect("127.0.0.1", port());
    ASSERT_TRUE(conn.ok());
    auto reader = RawHello(&conn.value(), "quitter");
    SubmitFrame submit;
    submit.expected_bytes = data.size();
    submit.memory_budget = 48 * kMB;
    ASSERT_TRUE(
        WriteFrame(&conn.value(), FrameType::kSubmit, submit.Encode()).ok());
    constexpr size_t kChunk = 512 * 1024;
    for (size_t off = 0; off < data.size(); off += kChunk) {
      const size_t n = std::min(kChunk, data.size() - off);
      ASSERT_TRUE(WriteFrame(&conn.value(), FrameType::kData,
                             std::string(data.data() + off, n))
                      .ok());
    }
    DoneFrame done;
    done.total_bytes = data.size();
    done.crc32c = Crc32c(data.data(), data.size());
    ASSERT_TRUE(
        WriteFrame(&conn.value(), FrameType::kDone, done.Encode()).ok());
    Frame f;
    ASSERT_TRUE(ExpectFrame(reader.get(), FrameType::kData, &f).ok());
    conn.value().Close();
  }
  ExpectNoResidue();
  const NetServerStats s = server_->stats();
  EXPECT_EQ(uint64_t(0), s.protocol_errors);
  EXPECT_EQ(uint64_t(1), s.jobs_submitted);
  EXPECT_EQ(s.jobs_submitted, s.jobs_completed + s.jobs_failed);
}

TEST_F(NetServiceTest, AnswersStatusDuringUpload) {
  StartDefaultServer();
  Result<TcpConn> conn = TcpConnect("127.0.0.1", port());
  ASSERT_TRUE(conn.ok());
  auto reader = RawHello(&conn.value(), "curious");

  const std::vector<char> data = MakeRecords(1000);
  SubmitFrame submit;
  submit.expected_bytes = data.size();
  ASSERT_TRUE(
      WriteFrame(&conn.value(), FrameType::kSubmit, submit.Encode()).ok());

  // First half of the records...
  const size_t half = data.size() / 2;
  ASSERT_TRUE(WriteFrame(&conn.value(), FrameType::kData,
                         std::string(data.data(), half))
                  .ok());
  // ...a STATUS interleaved mid-stream must be answered in place...
  StatusRequestFrame ask;
  ASSERT_TRUE(
      WriteFrame(&conn.value(), FrameType::kStatus, ask.Encode()).ok());
  Frame f;
  ASSERT_TRUE(ExpectFrame(reader.get(), FrameType::kStatus, &f).ok());
  StatusReplyFrame reply;
  ASSERT_TRUE(reply.Decode(f.payload).ok());
  EXPECT_EQ(uint64_t(1), reply.conns_active);
  EXPECT_EQ(uint64_t(1), reply.net_jobs_inflight);
  // v2: the reply carries this tenant's live token balance (quotas are
  // on, so it is a real number — nonzero, at most the bucket capacity).
  EXPECT_GT(reply.quota_remaining, uint64_t(0));
  EXPECT_LE(reply.quota_remaining, uint64_t(64) * kMB);

  // ...and the upload then completes normally.
  ASSERT_TRUE(WriteFrame(&conn.value(), FrameType::kData,
                         std::string(data.data() + half, data.size() - half))
                  .ok());
  DoneFrame done;
  done.total_bytes = data.size();
  done.crc32c = Crc32c(data.data(), data.size());
  ASSERT_TRUE(
      WriteFrame(&conn.value(), FrameType::kDone, done.Encode()).ok());

  uint64_t streamed = 0;
  ResultFrame result;
  ASSERT_TRUE(
      ReadSortedStreamThenResult(reader.get(), &streamed, &result).ok());
  EXPECT_TRUE(result.ToStatus().ok()) << result.ToStatus().ToString();
  EXPECT_EQ(uint64_t(data.size()), result.output_bytes);
  EXPECT_EQ(uint64_t(data.size()), streamed);

  conn.value().Close();
  ExpectNoResidue();
}

// A connection waiting on its sort sleeps until a frame arrives or the
// job settles, instead of waking on a timer: job B sits queued behind job
// A (one runner; A's upload is held open), and while B's connection
// idles it does not wake at all. STATUS is still answered mid-wait, and
// each connection wakes once more as its job settles.
TEST_F(NetServiceTest, SortWaitWakesOnCompletionNotOnATick) {
  NetServerOptions opts = DefaultOptions();
  opts.service.max_running = 1;
  StartServer(opts);

  // Job A: admitted and running, its upload half sent.
  const std::vector<char> data_a = MakeRecords(2000, 1);
  Result<TcpConn> conn_a = TcpConnect("127.0.0.1", port());
  ASSERT_TRUE(conn_a.ok());
  auto reader_a = RawHello(&conn_a.value(), "t0");
  SubmitFrame submit_a;
  submit_a.expected_bytes = data_a.size();
  ASSERT_TRUE(
      WriteFrame(&conn_a.value(), FrameType::kSubmit, submit_a.Encode())
          .ok());
  const size_t half = data_a.size() / 2;
  ASSERT_TRUE(WriteFrame(&conn_a.value(), FrameType::kData,
                         std::string(data_a.data(), half))
                  .ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->service_stats().running < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(1, server_->service_stats().running);

  // Job B: fully uploaded, then queued behind A.
  const std::vector<char> data_b = MakeRecords(1000, 2);
  Result<TcpConn> conn_b = TcpConnect("127.0.0.1", port());
  ASSERT_TRUE(conn_b.ok());
  auto reader_b = RawHello(&conn_b.value(), "t1");
  SubmitFrame submit_b;
  submit_b.expected_bytes = data_b.size();
  ASSERT_TRUE(
      WriteFrame(&conn_b.value(), FrameType::kSubmit, submit_b.Encode())
          .ok());
  ASSERT_TRUE(WriteFrame(&conn_b.value(), FrameType::kData,
                         std::string(data_b.data(), data_b.size()))
                  .ok());
  DoneFrame done_b;
  done_b.total_bytes = data_b.size();
  done_b.crc32c = Crc32c(data_b.data(), data_b.size());
  ASSERT_TRUE(
      WriteFrame(&conn_b.value(), FrameType::kDone, done_b.Encode()).ok());

  // Frames are served in order, so a STATUS reply after DONE means B's
  // connection is in its sort wait.
  StatusRequestFrame ask;
  ASSERT_TRUE(
      WriteFrame(&conn_b.value(), FrameType::kStatus, ask.Encode()).ok());
  Frame f;
  ASSERT_TRUE(ExpectFrame(reader_b.get(), FrameType::kStatus, &f).ok());
  StatusReplyFrame reply;
  ASSERT_TRUE(reply.Decode(f.payload).ok());
  EXPECT_EQ(uint64_t(2), reply.net_jobs_inflight);

  // An idle wait does not wake, however long the job stays queued (a
  // 20 ms tick would wake it ~10 times here).
  const uint64_t before = server_->stats().sort_wait_wakeups;
  EXPECT_GE(before, uint64_t(1));  // the STATUS
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(before, server_->stats().sort_wait_wakeups);

  // Release A; both jobs finish and stream back.
  ASSERT_TRUE(WriteFrame(&conn_a.value(), FrameType::kData,
                         std::string(data_a.data() + half,
                                     data_a.size() - half))
                  .ok());
  DoneFrame done_a;
  done_a.total_bytes = data_a.size();
  done_a.crc32c = Crc32c(data_a.data(), data_a.size());
  ASSERT_TRUE(
      WriteFrame(&conn_a.value(), FrameType::kDone, done_a.Encode()).ok());
  for (FrameReader* reader : {reader_a.get(), reader_b.get()}) {
    uint64_t streamed = 0;
    ResultFrame result;
    ASSERT_TRUE(ReadSortedStreamThenResult(reader, &streamed, &result).ok());
    EXPECT_TRUE(result.ToStatus().ok()) << result.ToStatus().ToString();
  }
  // At most one more wakeup per connection: its job settling.
  EXPECT_LE(server_->stats().sort_wait_wakeups, before + 2);

  conn_a.value().Close();
  conn_b.value().Close();
  ExpectNoResidue();
}

TEST_F(NetServiceTest, CancelDuringUploadAbortsAndConnSurvives) {
  StartDefaultServer();
  Result<TcpConn> conn = TcpConnect("127.0.0.1", port());
  ASSERT_TRUE(conn.ok());
  auto reader = RawHello(&conn.value(), "fickle");

  const std::vector<char> data = MakeRecords(1000);
  SubmitFrame submit;
  submit.expected_bytes = data.size();
  ASSERT_TRUE(
      WriteFrame(&conn.value(), FrameType::kSubmit, submit.Encode()).ok());
  ASSERT_TRUE(WriteFrame(&conn.value(), FrameType::kData,
                         std::string(data.data(), data.size() / 2))
                  .ok());
  CancelFrame cancel;
  ASSERT_TRUE(
      WriteFrame(&conn.value(), FrameType::kCancel, cancel.Encode()).ok());
  // The stream still ends on a frame boundary so the server can keep
  // the connection; an abandoned upload without DONE is the disconnect
  // test's subject.
  DoneFrame done;
  done.total_bytes = data.size() / 2;
  done.crc32c = Crc32c(data.data(), data.size() / 2);
  ASSERT_TRUE(
      WriteFrame(&conn.value(), FrameType::kDone, done.Encode()).ok());

  Frame f;
  ASSERT_TRUE(ExpectFrame(reader.get(), FrameType::kResult, &f).ok());
  ResultFrame result;
  ASSERT_TRUE(result.Decode(f.payload).ok());
  EXPECT_TRUE(result.ToStatus().IsAborted()) << result.ToStatus().ToString();

  // Same connection, next job: runs to completion.
  SubmitFrame submit2;
  submit2.expected_bytes = data.size();
  ASSERT_TRUE(
      WriteFrame(&conn.value(), FrameType::kSubmit, submit2.Encode()).ok());
  ASSERT_TRUE(WriteFrame(&conn.value(), FrameType::kData,
                         std::string(data.data(), data.size()))
                  .ok());
  DoneFrame done2;
  done2.total_bytes = data.size();
  done2.crc32c = Crc32c(data.data(), data.size());
  ASSERT_TRUE(
      WriteFrame(&conn.value(), FrameType::kDone, done2.Encode()).ok());
  uint64_t streamed = 0;
  ASSERT_TRUE(
      ReadSortedStreamThenResult(reader.get(), &streamed, &result).ok());
  EXPECT_TRUE(result.ToStatus().ok()) << result.ToStatus().ToString();
  EXPECT_EQ(uint64_t(data.size()), streamed);

  conn.value().Close();
  ExpectNoResidue();
}

TEST_F(NetServiceTest, VersionMismatchRejectedWithResult) {
  StartDefaultServer();
  Result<TcpConn> conn = TcpConnect("127.0.0.1", port());
  ASSERT_TRUE(conn.ok());
  HelloFrame hello;
  hello.version = kProtocolVersion + 1;
  ASSERT_TRUE(
      WriteFrame(&conn.value(), FrameType::kHello, hello.Encode()).ok());

  FrameReader reader(&conn.value());
  Frame f;
  ASSERT_TRUE(ExpectFrame(&reader, FrameType::kResult, &f).ok());
  ResultFrame result;
  ASSERT_TRUE(result.Decode(f.payload).ok());
  EXPECT_TRUE(result.ToStatus().IsInvalidArgument())
      << result.ToStatus().ToString();
  EXPECT_GE(server_->stats().protocol_errors, uint64_t(1));
  ExpectNoResidue();
}

TEST_F(NetServiceTest, CorruptFrameCountsProtocolErrorAndCloses) {
  StartDefaultServer();
  Result<TcpConn> conn = TcpConnect("127.0.0.1", port());
  ASSERT_TRUE(conn.ok());
  auto reader = RawHello(&conn.value(), "flip");

  // A SUBMIT whose CRC byte is flipped: envelope-level corruption.
  SubmitFrame submit;
  std::string wire = EncodeFrame(FrameType::kSubmit, submit.Encode());
  wire[wire.size() - 1] ^= 0x01;
  ASSERT_TRUE(conn.value().WriteAll(wire).ok());

  // The server answers with a best-effort RESULT and closes; all this
  // side must observe is an eventual EOF/RESULT, never a hang.
  Frame f;
  Status s = reader->Read(&f);
  if (s.ok() && f.type == FrameType::kResult) {
    ResultFrame result;
    ASSERT_TRUE(result.Decode(f.payload).ok());
    EXPECT_FALSE(result.ToStatus().ok());
    s = reader->Read(&f);  // then EOF
  }
  EXPECT_FALSE(s.ok());
  conn.value().Close();

  ExpectNoResidue();
  EXPECT_GE(server_->stats().protocol_errors, uint64_t(1));
}

TEST_F(NetServiceTest, ConnectionCapacityRejectionIsUnavailable) {
  NetServerOptions opts;
  opts.max_conns = 1;
  opts.service.memory_budget = 64 * kMB;
  opts.job_defaults.memory_budget = 8 * kMB;
  StartServer(opts);

  SortClient first;
  ASSERT_TRUE(first.Connect("127.0.0.1", port(), "a").ok());

  SortClient second;
  Status s = second.Connect("127.0.0.1", port(), "b");
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_EQ(uint64_t(1), server_->stats().conns_rejected);

  first.Close();
  ExpectNoResidue();
}

TEST_F(NetServiceTest, DoneCrcMismatchIsCorruptionAndConnSurvives) {
  StartDefaultServer();
  Result<TcpConn> conn = TcpConnect("127.0.0.1", port());
  ASSERT_TRUE(conn.ok());
  auto reader = RawHello(&conn.value(), "liar");

  const std::vector<char> data = MakeRecords(500);
  SubmitFrame submit;
  submit.expected_bytes = data.size();
  ASSERT_TRUE(
      WriteFrame(&conn.value(), FrameType::kSubmit, submit.Encode()).ok());
  ASSERT_TRUE(WriteFrame(&conn.value(), FrameType::kData,
                         std::string(data.data(), data.size()))
                  .ok());
  DoneFrame done;
  done.total_bytes = data.size();
  done.crc32c = Crc32c(data.data(), data.size()) ^ 0xffffffffu;
  ASSERT_TRUE(
      WriteFrame(&conn.value(), FrameType::kDone, done.Encode()).ok());

  Frame f;
  ASSERT_TRUE(ExpectFrame(reader.get(), FrameType::kResult, &f).ok());
  ResultFrame result;
  ASSERT_TRUE(result.Decode(f.payload).ok());
  EXPECT_TRUE(result.ToStatus().IsCorruption())
      << result.ToStatus().ToString();

  // The stream ended on a frame boundary, so the connection still
  // works: an honest retry of the same records succeeds.
  SubmitFrame submit2;
  submit2.expected_bytes = data.size();
  ASSERT_TRUE(
      WriteFrame(&conn.value(), FrameType::kSubmit, submit2.Encode()).ok());
  ASSERT_TRUE(WriteFrame(&conn.value(), FrameType::kData,
                         std::string(data.data(), data.size()))
                  .ok());
  DoneFrame done2;
  done2.total_bytes = data.size();
  done2.crc32c = Crc32c(data.data(), data.size());
  ASSERT_TRUE(
      WriteFrame(&conn.value(), FrameType::kDone, done2.Encode()).ok());
  uint64_t streamed = 0;
  ASSERT_TRUE(
      ReadSortedStreamThenResult(reader.get(), &streamed, &result).ok());
  EXPECT_TRUE(result.ToStatus().ok()) << result.ToStatus().ToString();
  EXPECT_EQ(uint64_t(data.size()), streamed);

  conn.value().Close();
  ExpectNoResidue();
}

// The tracing acceptance test: one job under a caller-chosen trace id,
// and the id shows up in every observability surface on both sides of
// the wire — the client's net.submit span, the server's net.ingest /
// net.sort_wait / net.stream_back spans, the structured log's service
// lifecycle events, and the job's registry gauge — while the RESULT's
// stage breakdown stays coherent with the server's elapsed time.
// Client and server share this process, so one recorder and one log
// sink capture both halves of the wire.
TEST_F(NetServiceTest, TracePropagatesEndToEnd) {
  obs::TraceRecorder recorder;
  recorder.Install();
  obs::MemoryLogSink log;
  obs::Logger::Global()->AddSink(&log);

  StartDefaultServer();
  SortClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port(), "traced").ok());

  constexpr uint64_t kTraceId = 0xABCDEF123456ull;  // fits in 48 bits
  const std::vector<char> data = MakeRecords(20000);
  std::string sorted;
  NetSortOutcome outcome;
  SubmitSpec spec;
  spec.trace_id = kTraceId;
  ASSERT_TRUE(
      client.SubmitSort(spec, data.data(), data.size(), &sorted, &outcome)
          .ok());
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(kTraceId, outcome.trace_id);
  ExpectSorted(data, sorted);
  WaitForCompleted(1);
  client.Close();
  ExpectNoResidue();

  obs::Logger::Global()->RemoveSink(&log);
  obs::TraceRecorder::Uninstall();

  // The breakdown attributes the server's end-to-end time to stages.
  // Ingest overlaps the sort's read pass (the upload feeds the pipeline
  // directly), so the full stage sum may legitimately exceed elapsed_us;
  // the non-overlapped stages must still fit inside it, and the sum must
  // cover the elapsed time (nothing unattributed beyond 10% slack).
  const uint64_t stage_sum = outcome.ingest_us + outcome.queue_us +
                             outcome.sort_us + outcome.merge_us +
                             outcome.stream_us;
  ASSERT_GT(outcome.server_elapsed_us, uint64_t(0));
  EXPECT_GT(outcome.ingest_us, uint64_t(0));
  EXPECT_GE(double(stage_sum), 0.90 * double(outcome.server_elapsed_us))
      << "ingest=" << outcome.ingest_us << " queue=" << outcome.queue_us
      << " sort=" << outcome.sort_us << " merge=" << outcome.merge_us
      << " stream=" << outcome.stream_us;
  EXPECT_LE(outcome.queue_us + outcome.merge_us + outcome.stream_us,
            outcome.server_elapsed_us)
      << "non-overlapped stages cannot exceed the elapsed time";

  // Every stage span, client- and server-side, carries args.trace_id.
  obs::JsonValue trace;
  ASSERT_TRUE(obs::ParseJson(recorder.ToChromeJson(), &trace).ok());
  const obs::JsonValue* events = trace.Find("traceEvents");
  ASSERT_NE(nullptr, events);
  ASSERT_TRUE(events->IsArray());
  const char* kStageSpans[] = {"net.submit", "net.ingest", "net.sort_wait",
                               "net.stream_back"};
  for (const char* span : kStageSpans) {
    bool tagged = false;
    for (const obs::JsonValue& ev : events->items) {
      const obs::JsonValue* name = ev.Find("name");
      if (name == nullptr || name->string_value != span) continue;
      const obs::JsonValue* args = ev.Find("args");
      const obs::JsonValue* id =
          args == nullptr ? nullptr : args->Find("trace_id");
      if (id != nullptr && id->IsNumber() &&
          uint64_t(id->number_value) == kTraceId) {
        tagged = true;
      }
    }
    EXPECT_TRUE(tagged) << span << " span missing args.trace_id";
  }

  // The structured log joins the same timeline: the service lifecycle
  // events for this job were stamped with the ambient id.
  bool admit_tagged = false;
  bool complete_tagged = false;
  for (const obs::LogEvent& ev : log.events()) {
    if (ev.trace_id != kTraceId) continue;
    if (strcmp(ev.event, "svc.admit") == 0) admit_tagged = true;
    if (strcmp(ev.event, "svc.complete") == 0) complete_tagged = true;
  }
  EXPECT_TRUE(admit_tagged) << "svc.admit not stamped with the trace id";
  EXPECT_TRUE(complete_tagged) << "svc.complete not stamped";

  // And the registry: the job's .trace gauge (the flight recorder's
  // join key) holds the id, and the timeline fed the e2e histogram.
  const obs::RegistrySnapshot reg =
      obs::MetricsRegistry::Global()->Snapshot();
  const std::string gauge = StrFormat(
      "svc.job.%llu.trace", static_cast<unsigned long long>(outcome.job_id));
  auto it = reg.gauges.find(gauge);
  ASSERT_NE(reg.gauges.end(), it) << gauge << " missing from the registry";
  EXPECT_EQ(int64_t(kTraceId), it->second);
  const auto hist = reg.histograms.find("net.job.e2e_us");
  ASSERT_NE(reg.histograms.end(), hist);
  EXPECT_GE(hist->second.count, uint64_t(1));

  // The flight recorder samples the same gauges, so a post-mortem
  // capture taken any time after admission names the trace id too.
  const std::string flight = obs::RenderFlightRecord();
  EXPECT_NE(std::string::npos,
            flight.find(StrFormat(
                "\"%s\":%llu", gauge.c_str(),
                static_cast<unsigned long long>(kTraceId))))
      << flight;
}

TEST_F(NetServiceTest, ManyConcurrentClients) {
  NetServerOptions opts;
  opts.service.memory_budget = 64 * kMB;
  opts.service.max_running = 4;
  opts.service.max_queued = 64;
  opts.service.num_workers = 2;
  opts.quota.capacity_bytes = 64 * kMB;
  opts.quota.refill_bytes_per_s = 64 * kMB;
  opts.max_conns = 64;
  opts.job_defaults.memory_budget = 8 * kMB;
  StartServer(opts);

  constexpr int kClients = 16;
  std::vector<std::thread> threads;
  std::vector<Status> outcomes(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, i, &outcomes] {
      RecordGenerator gen(kDatamationFormat, uint64_t(i) + 100);
      const std::vector<char> data =
          gen.Generate(KeyDistribution::kUniform, 800);
      SortClient client;
      Status s =
          client.Connect("127.0.0.1", port(), StrFormat("tenant-%d", i));
      std::string sorted;
      NetSortOutcome outcome;
      if (s.ok()) {
        s = client.SubmitSort(SubmitSpec(), data.data(), data.size(),
                              &sorted, &outcome);
      }
      if (s.ok()) s = outcome.status;
      if (s.ok() && sorted.size() != data.size()) {
        s = Status::Corruption("short output");
      }
      outcomes[size_t(i)] = s;
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(outcomes[size_t(i)].ok())
        << "client " << i << ": " << outcomes[size_t(i)].ToString();
  }
  WaitForCompleted(kClients);
  ExpectNoResidue();
}

// A job's ingest buffer holds at most kIngestBufferBytes, however large
// its upload. The second job below waits in the queue behind the
// first, so nothing drains its buffer while its 5 MB upload arrives:
// the buffer must fill to its bound and stall the uploader there.
TEST_F(NetServiceTest, IngestBufferIsBoundedPerJob) {
  NetServerOptions opts = DefaultOptions();
  opts.service.max_running = 1;
  StartServer(opts);

  // Job A holds the only runner: its upload stops short of DONE.
  const std::vector<char> a = MakeRecords(2000, 1);
  Result<TcpConn> conn = TcpConnect("127.0.0.1", port());
  ASSERT_TRUE(conn.ok());
  auto reader = RawHello(&conn.value(), "a");
  SubmitFrame submit;
  submit.expected_bytes = a.size();
  ASSERT_TRUE(
      WriteFrame(&conn.value(), FrameType::kSubmit, submit.Encode()).ok());
  const size_t half = a.size() / 2;
  ASSERT_TRUE(WriteFrame(&conn.value(), FrameType::kData,
                         std::string(a.data(), half))
                  .ok());

  // Job B queues behind A and uploads 5 MB.
  const std::vector<char> b = MakeRecords(50000, 2);
  std::string b_sorted;
  Status b_status;
  std::thread uploader([&] {
    SortClient client;
    NetSortOutcome outcome;
    b_status = client.Connect("127.0.0.1", port(), "b");
    if (b_status.ok()) {
      b_status = client.SubmitSort(SubmitSpec(), b.data(), b.size(),
                                   &b_sorted, &outcome);
    }
    if (b_status.ok()) b_status = outcome.status;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Release A, then B runs and drains its buffer.
  ASSERT_TRUE(WriteFrame(&conn.value(), FrameType::kData,
                         std::string(a.data() + half, a.size() - half))
                  .ok());
  DoneFrame done;
  done.total_bytes = a.size();
  done.crc32c = Crc32c(a.data(), a.size());
  ASSERT_TRUE(
      WriteFrame(&conn.value(), FrameType::kDone, done.Encode()).ok());
  uint64_t streamed = 0;
  ResultFrame result;
  ASSERT_TRUE(
      ReadSortedStreamThenResult(reader.get(), &streamed, &result).ok());
  EXPECT_TRUE(result.ToStatus().ok()) << result.ToStatus().ToString();
  uploader.join();
  ASSERT_TRUE(b_status.ok()) << b_status.ToString();
  ExpectSorted(b, b_sorted);

  conn.value().Close();
  ExpectNoResidue();
  const uint64_t peak = server_->stats().ingest_buffer_peak;
  EXPECT_GT(peak, uint64_t(0));
  EXPECT_LE(peak, kIngestBufferBytes) << "a job buffered more than its bound";
}

// DONE carries the CRC the sort computed while writing its output
// (SortMetrics::output_crc32c), for a one-pass job and a spilled one.
TEST_F(NetServiceTest, DoneCrcIsTheSortsOutputCrc) {
  StartDefaultServer();
  SortClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port(), "t0").ok());
  const std::vector<char> data = MakeRecords(30000);

  for (const uint64_t budget : {8 * kMB, 1 * kMB}) {
    // The same sort run in process on the server's Env.
    ASSERT_TRUE(env_->WriteStringToFile(
                        "ref.in", std::string(data.data(), data.size()))
                    .ok());
    SortOptions opts;
    opts.input_path = "ref.in";
    opts.output_path = "ref.out";
    opts.io_chunk_bytes = 64 * 1024;
    opts.run_size_records = 4096;
    opts.memory_budget = budget;
    Sorter sorter(env_.get());
    SortJob job = sorter.Start(opts);
    const SortResult& ref = job.Wait();
    ASSERT_TRUE(ref.status.ok()) << ref.status.ToString();
    EXPECT_EQ(budget < data.size() ? 2 : 1, ref.metrics.passes);
    ASSERT_TRUE(env_->DeleteFile("ref.in").ok());
    ASSERT_TRUE(env_->DeleteFile("ref.out").ok());

    SubmitSpec spec;
    spec.memory_budget = budget;
    std::string sorted;
    NetSortOutcome outcome;
    ASSERT_TRUE(
        client.SubmitSort(spec, data.data(), data.size(), &sorted, &outcome)
            .ok());
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    ExpectSorted(data, sorted);
    EXPECT_EQ(ref.metrics.output_crc32c, outcome.output_crc32c)
        << "budget " << budget;
  }
  client.Close();
  ExpectNoResidue();
}

// Because DONE's CRC comes from the sort, not from re-reading the
// spooled output, a byte corrupted on its way to disk reaches the
// client as a CRC failure instead of a "verified" wrong answer.
TEST_F(NetServiceTest, StreamBackCrcCoversTheSpooledOutput) {
  FaultPlan plan;
  FaultSpec corrupt;
  corrupt.corrupt_write_prob = 1.0;
  plan.overrides.push_back({".out", corrupt});
  StartServer(DefaultOptions(), &plan);

  SortClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port(), "t0").ok());
  const std::vector<char> data = MakeRecords(2000);
  std::string sorted;
  NetSortOutcome outcome;
  Status s =
      client.SubmitSort(SubmitSpec(), data.data(), data.size(), &sorted,
                        &outcome);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_GT(fault_env_->corrupt_writes_injected(), uint64_t(0));

  client.Close();
  ExpectNoResidue();
}

// Runs `body`, waiting at most `limit`. A NetServer lock-order deadlock
// leaves threads blocked on the server's mutex for good, so neither the
// body nor the server's destructor would return: report and end the
// process rather than hang until the ctest timeout.
void RunWithWatchdog(std::chrono::seconds limit, const char* what,
                     const std::function<void()>& body) {
  std::future<void> finished = std::async(std::launch::async, body);
  if (finished.wait_for(limit) == std::future_status::timeout) {
    fprintf(stderr, "FATAL: %s did not finish within %llds (deadlock?)\n",
            what, static_cast<long long>(limit.count()));
    fflush(stderr);
    std::_Exit(1);
  }
  finished.get();
}

// Connection churn: connections close (taking the server's mutex on the
// way out) while the accept thread reaps finished ones. Reaping must
// never join a thread under that mutex.
TEST_F(NetServiceTest, ConnectionChurnNeverDeadlocksTheAcceptLoop) {
  constexpr int kRounds = 20;
  constexpr int kThreads = 4;
  constexpr int kConnsPerThread = 75;
  // Room for every connection: a server thread that lags behind its
  // client must not turn into a capacity rejection.
  NetServerOptions opts = DefaultOptions();
  opts.max_conns = kRounds * kThreads * kConnsPerThread;
  StartServer(opts);
  RunWithWatchdog(std::chrono::seconds(30), "connection churn", [&] {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([this, t] {
          for (int i = 0; i < kConnsPerThread; ++i) {
            Result<TcpConn> conn = TcpConnect("127.0.0.1", port());
            ASSERT_TRUE(conn.ok()) << conn.status().ToString();
            // Mostly HELLO-then-close (the orderly exit); every third
            // hangs up before HELLO (the handshake-error exit).
            if ((t + i) % 3 != 0) RawHello(&conn.value(), "churn");
            conn.value().Close();
          }
        });
      }
      for (auto& th : threads) th.join();
    }
    ExpectNoResidue();
  });
  EXPECT_EQ(uint64_t(kRounds * kThreads * kConnsPerThread),
            server_->stats().conns_accepted);
}

}  // namespace
}  // namespace net
}  // namespace alphasort
