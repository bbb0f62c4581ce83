// Round-trip tests for the Perfetto JSON and TSV trace formats, plus
// malformed-input rejection and the end-to-end runtime trace pipeline.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <vector>

#include "core/env.hpp"
#include "core/profiler.hpp"
#include "core/runtime.hpp"
#include "core/trace_export.hpp"

namespace tdg {
namespace {

std::vector<TaskRecord> sample_records() {
  // Labels must outlive the records (TaskRecord stores const char*).
  static const char* kLabels[] = {"alpha", "beta", "gamma"};
  std::vector<TaskRecord> rec;
  for (std::uint64_t i = 0; i < 3; ++i) {
    TaskRecord r;
    r.task_id = i + 1;
    r.t_create = 1000 * i;
    r.t_ready = 1000 * i + 100;
    r.t_start = 1000 * i + 500;
    r.t_end = 1000 * i + 900;
    r.thread = static_cast<std::uint32_t>(i % 2);
    r.iteration = static_cast<std::uint32_t>(i);
    r.label = kLabels[i];
    rec.push_back(r);
  }
  return rec;
}

std::vector<TraceEdge> sample_edges() { return {{1, 2}, {2, 3}, {1, 3}}; }

TEST(PerfettoExport, RoundTripPreservesRecordsAndEdges) {
  const auto rec = sample_records();
  const auto edges = sample_edges();
  std::ostringstream os;
  write_perfetto(os, rec, edges);

  std::istringstream is(os.str());
  const ParsedTrace back = parse_perfetto(is);
  ASSERT_EQ(back.records.size(), rec.size());
  for (std::size_t i = 0; i < rec.size(); ++i) {
    EXPECT_EQ(back.records[i].task_id, rec[i].task_id);
    EXPECT_EQ(back.records[i].thread, rec[i].thread);
    EXPECT_EQ(back.records[i].iteration, rec[i].iteration);
    EXPECT_STREQ(back.records[i].label, rec[i].label);
    // Timestamps are normalized to the earliest record and re-expressed
    // from microsecond precision: equal up to rounding, deltas preserved.
    EXPECT_EQ(back.records[i].t_end - back.records[i].t_start,
              rec[i].t_end - rec[i].t_start);
    EXPECT_EQ(back.records[i].t_start - back.records[i].t_create,
              rec[i].t_start - rec[i].t_create);
    EXPECT_EQ(back.records[i].t_ready - back.records[i].t_create,
              rec[i].t_ready - rec[i].t_create);
  }
  ASSERT_EQ(back.edges.size(), edges.size());
  for (const TraceEdge& e : edges) {
    bool found = false;
    for (const TraceEdge& b : back.edges) {
      found |= b.pred == e.pred && b.succ == e.succ;
    }
    EXPECT_TRUE(found) << e.pred << "->" << e.succ;
  }
}

TEST(PerfettoExport, EmitsMetadataSlicesFlowsAndCounters) {
  const auto rec = sample_records();
  const auto edges = sample_edges();
  std::ostringstream os;
  write_perfetto(os, rec, edges);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
}

TEST(PerfettoExport, BareArrayFormAlsoParses) {
  // The trace-event spec allows a bare JSON array of events.
  std::istringstream is(
      R"([{"ph":"X","pid":0,"tid":0,"ts":0,"dur":5,"name":"t",)"
      R"("args":{"id":7,"iteration":0,"create_us":0,"ready_us":0}}])");
  const ParsedTrace t = parse_perfetto(is);
  ASSERT_EQ(t.records.size(), 1u);
  EXPECT_EQ(t.records[0].task_id, 7u);
  EXPECT_EQ(t.records[0].t_end - t.records[0].t_start, 5000u);
}

TEST(PerfettoExport, MalformedInputThrowsUsageError) {
  const char* bad[] = {
      "",
      "not json",
      "{\"traceEvents\": ",
      "{\"traceEvents\": 3}",
      "[{\"ph\":\"X\"",
      "{\"traceEvents\": [{]}",
  };
  for (const char* text : bad) {
    std::istringstream is(text);
    EXPECT_THROW(parse_perfetto(is), UsageError) << text;
  }
}

TEST(TsvExport, RoundTripIsLossless) {
  const auto rec = sample_records();
  std::ostringstream os;
  write_trace_tsv(os, rec);

  std::istringstream is(os.str());
  const ParsedTrace back = parse_trace_tsv(is);
  ASSERT_EQ(back.records.size(), rec.size());
  for (std::size_t i = 0; i < rec.size(); ++i) {
    EXPECT_EQ(back.records[i].task_id, rec[i].task_id);
    EXPECT_EQ(back.records[i].t_create, rec[i].t_create);
    EXPECT_EQ(back.records[i].t_ready, rec[i].t_ready);
    EXPECT_EQ(back.records[i].t_start, rec[i].t_start);
    EXPECT_EQ(back.records[i].t_end, rec[i].t_end);
    EXPECT_EQ(back.records[i].thread, rec[i].thread);
    EXPECT_EQ(back.records[i].iteration, rec[i].iteration);
    EXPECT_STREQ(back.records[i].label, rec[i].label);
  }
}

TEST(TsvExport, TruncatedRowThrows) {
  std::istringstream is(
      "task_id\tthread\titeration\tlabel\tt_create_ns\tt_ready_ns"
      "\tt_start_ns\tt_end_ns\n1\t0\t0\tx\t1\t2\n");
  EXPECT_THROW(parse_trace_tsv(is), UsageError);
}

TEST(TraceSniffing, SelectsFormatByFirstByte) {
  const auto rec = sample_records();
  std::ostringstream json_os, tsv_os;
  write_perfetto(json_os, rec, {});
  write_trace_tsv(tsv_os, rec);

  std::istringstream json_is(json_os.str()), tsv_is(tsv_os.str());
  EXPECT_EQ(parse_trace(json_is).records.size(), rec.size());
  EXPECT_EQ(parse_trace(tsv_is).records.size(), rec.size());
}

TEST(TraceEnv, ModeParsing) {
  // read_env() reads TDG_TRACE / TDG_TRACE_FILE from the process
  // environment; drive it via setenv.
  setenv("TDG_TRACE", "perfetto", 1);
  EXPECT_EQ(read_env().trace, TraceMode::Perfetto);
  setenv("TDG_TRACE", "json", 1);
  EXPECT_EQ(read_env().trace, TraceMode::Perfetto);
  setenv("TDG_TRACE", "tsv", 1);
  EXPECT_EQ(read_env().trace, TraceMode::Tsv);
  setenv("TDG_TRACE", "off", 1);
  EXPECT_EQ(read_env().trace, TraceMode::Off);
  EXPECT_FALSE(read_env().tracing());
  setenv("TDG_TRACE_FILE", "/tmp/custom.json", 1);
  setenv("TDG_TRACE", "perfetto", 1);
  EXPECT_EQ(read_env().trace_file, "/tmp/custom.json");
  unsetenv("TDG_TRACE");
  unsetenv("TDG_TRACE_FILE");
  EXPECT_FALSE(read_env().trace.has_value());
  EXPECT_FALSE(read_env().tracing());
}

std::vector<CommRecord> sample_comms() {
  std::vector<CommRecord> comms;
  CommRecord s;
  s.kind = CommRecord::Kind::Send;
  s.self = 0;
  s.peer = 1;
  s.tag = 7;
  s.seq = 1;
  s.bytes = 64;
  s.t_post = 1200;
  s.t_complete = 1300;
  s.retransmits = 2;
  s.task_id = 1;
  comms.push_back(s);
  CommRecord r;
  r.kind = CommRecord::Kind::Recv;
  r.self = 1;
  r.peer = 0;
  r.tag = 7;
  r.seq = 1;
  r.bytes = 64;
  r.t_post = 1100;
  r.t_complete = 1500;
  r.task_id = 2;
  comms.push_back(r);
  CommRecord c;
  c.kind = CommRecord::Kind::Collective;
  c.self = 0;
  c.tag = 0;
  c.seq = 1;
  c.bytes = 8;
  c.t_post = 2000;
  c.t_complete = 2600;
  comms.push_back(c);
  return comms;
}

TEST(PerfettoExport, CommRecordsRoundTripAndDrawMessageFlows) {
  const auto rec = sample_records();
  const auto comms = sample_comms();
  std::ostringstream os;
  write_perfetto(os, rec, {}, {}, {}, {}, comms);
  const std::string json = os.str();
  // The matched pair becomes a "msg" flow between the two comm tracks.
  EXPECT_NE(json.find("\"cat\":\"msg\""), std::string::npos);
  EXPECT_NE(json.find("send to 1 tag 7"), std::string::npos);
  EXPECT_NE(json.find("recv from 0 tag 7"), std::string::npos);
  EXPECT_NE(json.find("collective slot 0"), std::string::npos);

  std::istringstream is(json);
  const ParsedTrace back = parse_perfetto(is);
  ASSERT_EQ(back.comms.size(), comms.size());
  // Parsed comms are sorted by t_post: recv (1100) < send (1200) < coll.
  const CommRecord& r0 = back.comms[0];
  const CommRecord& s0 = back.comms[1];
  const CommRecord& c0 = back.comms[2];
  EXPECT_EQ(r0.kind, CommRecord::Kind::Recv);
  EXPECT_EQ(s0.kind, CommRecord::Kind::Send);
  EXPECT_EQ(c0.kind, CommRecord::Kind::Collective);
  EXPECT_EQ(s0.self, 0);
  EXPECT_EQ(s0.peer, 1);
  EXPECT_EQ(s0.tag, 7);
  EXPECT_EQ(s0.seq, 1u);
  EXPECT_EQ(s0.bytes, 64u);
  EXPECT_EQ(s0.retransmits, 2u);
  EXPECT_EQ(s0.task_id, 1u);
  // Timestamps are rebased to the earliest event; spans are preserved.
  EXPECT_EQ(s0.t_complete - s0.t_post, 100u);
  EXPECT_EQ(r0.t_complete - r0.t_post, 400u);
  EXPECT_EQ(c0.t_complete - c0.t_post, 600u);
}

TEST(PerfettoExport, TaskRankRoundTripsThroughPid) {
  static const char* kLabel = "remote";
  std::vector<TaskRecord> rec = sample_records();
  rec[1].rank = 3;
  rec[1].label = kLabel;
  std::ostringstream os;
  write_perfetto(os, rec, {});
  std::istringstream is(os.str());
  const ParsedTrace back = parse_perfetto(is);
  ASSERT_EQ(back.records.size(), rec.size());
  for (const TaskRecord& r : back.records) {
    EXPECT_EQ(r.rank, std::string(r.label) == "remote" ? 3 : 0);
  }
}

TEST(TsvExport, CommRecordsAndRankRoundTripExactly) {
  std::vector<TaskRecord> rec = sample_records();
  rec[2].rank = 5;
  const auto comms = sample_comms();
  std::ostringstream os;
  write_trace_tsv(os, rec, {}, {}, {}, {}, comms);

  std::istringstream is(os.str());
  const ParsedTrace back = parse_trace_tsv(is);
  ASSERT_EQ(back.records.size(), rec.size());
  EXPECT_EQ(back.records[2].rank, 5);
  ASSERT_EQ(back.comms.size(), comms.size());
  // TSV keeps absolute nanoseconds; everything must match bit-for-bit.
  const CommRecord& r0 = back.comms[0];  // sorted by t_post: the recv
  EXPECT_EQ(r0.kind, CommRecord::Kind::Recv);
  EXPECT_EQ(r0.self, 1);
  EXPECT_EQ(r0.peer, 0);
  EXPECT_EQ(r0.t_post, 1100u);
  EXPECT_EQ(r0.t_complete, 1500u);
  const CommRecord& s0 = back.comms[1];
  EXPECT_EQ(s0.kind, CommRecord::Kind::Send);
  EXPECT_EQ(s0.seq, 1u);
  EXPECT_EQ(s0.bytes, 64u);
  EXPECT_EQ(s0.retransmits, 2u);
  EXPECT_EQ(s0.task_id, 1u);
  EXPECT_EQ(s0.t_post, 1200u);
  EXPECT_EQ(s0.t_complete, 1300u);
}

TEST(RuntimeTrace, ProfilerStreamExportsAndParsesBack) {
  // End-to-end: run a small traced graph, export the profiler's stream,
  // parse it back and check the flow edges survived.
  std::vector<TaskRecord> records;
  std::vector<TraceEdge> edges;
  {
    Runtime rt({.num_threads = 2, .trace = true});
    double a = 0, b = 0, c = 0;
    rt.submit([&] { a = 1; }, {Depend::out(&a)}, {.label = "produce"});
    rt.submit([&] { b = a + 1; }, {Depend::in(&a), Depend::out(&b)},
              {.label = "left"});
    rt.submit([&] { c = a + 2; }, {Depend::in(&a), Depend::out(&c)},
              {.label = "right"});
    rt.submit([&] { a = b + c; },
              {Depend::in(&b), Depend::in(&c), Depend::out(&a)},
              {.label = "join"});
    rt.taskwait();
    records = rt.profiler().merged_trace();
    edges = rt.profiler().edges();
  }
  ASSERT_EQ(records.size(), 4u);
  ASSERT_GE(edges.size(), 4u);  // diamond: 2 from produce, 2 into join

  std::ostringstream os;
  write_perfetto(os, records, edges);
  std::istringstream is(os.str());
  const ParsedTrace back = parse_perfetto(is);
  EXPECT_EQ(back.records.size(), 4u);
  EXPECT_EQ(back.edges.size(), edges.size());
}

}  // namespace
}  // namespace tdg
