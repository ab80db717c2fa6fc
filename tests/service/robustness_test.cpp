// Robustness of the daemon against hostile or broken clients: malformed
// frames, oversized payloads, unknown versions and mid-stream disconnects
// must produce a structured error event or a clean connection drop — never
// a daemon crash — and the admission queue's bounding, dedup and
// one-job-at-a-time dispatch rules must hold deterministically.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/admission.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "service/result_store.hpp"
#include "support/assert.hpp"
#include "support/fault_injection.hpp"
#include "support/socket.hpp"

namespace isex {
namespace {

std::string temp_socket_path(const std::string& tag) {
  return testing::TempDir() + "isexr-" + tag + "-" +
         std::to_string(static_cast<unsigned>(::getpid())) + ".sock";
}

class DaemonRunner {
 public:
  explicit DaemonRunner(DaemonConfig config)
      : daemon_(std::move(config)), thread_([this] { daemon_.serve(); }) {}

  ~DaemonRunner() {
    daemon_.request_stop();
    thread_.join();
  }

  IsexDaemon& daemon() { return daemon_; }
  const std::string& socket() const { return daemon_.socket_path(); }

 private:
  IsexDaemon daemon_;
  std::thread thread_;
};

DaemonConfig base_config(const std::string& tag) {
  DaemonConfig config;
  config.socket_path = temp_socket_path(tag);
  config.accept_timeout_ms = 20;
  return config;
}

ExplorationRequest tiny_request() {
  ExplorationRequest request;
  request.workload = "fir";
  request.constraints.max_inputs = 2;
  request.constraints.max_outputs = 1;
  request.num_instructions = 2;
  return request;
}

/// Waits (bounded) until the daemon's store reports `served` requests.
void wait_for_served(IsexDaemon& daemon, std::uint64_t served) {
  for (int i = 0; i < 500; ++i) {
    if (daemon.store().status().at("requests_served").as_uint() >= served) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "daemon never served " << served << " request(s)";
}

TEST(ServiceRobustness, MalformedFramesGetStructuredErrorsAndTheConnectionLivesOn) {
  DaemonRunner runner(base_config("bad"));
  IsexClient client(runner.socket());

  struct Case {
    const char* line;
    const char* code;
    const char* id;  // expected correlation id on the error event
  };
  const Case cases[] = {
      {"this is not json at all", "bad-frame", ""},
      {"[1, 2, 3]", "bad-frame", ""},
      {R"({"id": "u1", "type": "ping"})", "bad-frame", "u1"},  // no version tag
      {R"({"isex": 99, "id": "u2", "type": "ping"})", "unsupported-version", "u2"},
      {R"({"isex": 3, "id": "u3", "type": "frobnicate"})", "bad-request", "u3"},
      {R"({"isex": 3, "id": "u4", "type": "explore"})", "bad-request", "u4"},
      {R"({"isex": 3, "id": "u5", "type": "explore", "request": {"workload": "no-such-kernel"}})",
       "bad-request", "u5"},
      {R"({"isex": 3, "id": "u6", "type": "explore", "request": {"workload": "fir", "num_instrctions": 3}})",
       "bad-request", "u6"},
      {R"({"isex": 3, "id": "u7", "type": "ping", "request": {}})", "bad-request", "u7"},
      {R"({"isex": 3, "id": "u8", "type": "explore", "request": {"workload": "fir", "emission": {}}})",
       "bad-request", "u8"},
  };
  for (const Case& c : cases) {
    client.send_line(std::string(c.line) + "\n");
    const std::optional<EventFrame> event = client.read_event();
    ASSERT_TRUE(event.has_value()) << c.line;
    EXPECT_EQ(event->event, "error") << c.line;
    EXPECT_EQ(event->id, c.id) << c.line;
    EXPECT_EQ(event->data.at("code").as_string(), c.code) << c.line;
  }

  // Stray blank lines are ignored, and the battered connection still serves
  // a real request end to end.
  client.send_line("\n");
  const Json payload = client.explore(tiny_request());
  EXPECT_EQ(payload.at("kind").as_string(), "exploration");
}

TEST(ServiceRobustness, OversizedFramesDropOnlyTheOffendingConnection) {
  DaemonConfig config = base_config("big");
  config.max_frame_bytes = 4096;
  DaemonRunner runner(config);

  IsexClient offender(runner.socket());
  offender.send_line(std::string(100000, 'x') + "\n");
  // The daemon drops the connection rather than buffering without bound:
  // the event stream ends without a frame.
  EXPECT_FALSE(offender.read_event().has_value());

  // The daemon itself is unharmed: a fresh connection works.
  IsexClient client(runner.socket());
  EXPECT_GE(client.ping().at("requests_served").as_uint(), 0u);
  EXPECT_EQ(client.explore(tiny_request()).at("kind").as_string(), "exploration");
}

TEST(ServiceRobustness, MidStreamDisconnectsNeverKillTheDaemon) {
  DaemonRunner runner(base_config("eof"));

  {
    // Disconnect right after submitting: the job runs to completion and its
    // publisher quietly drops the dead subscriber.
    IsexClient hit_and_run(runner.socket());
    RequestFrame frame;
    frame.type = "explore";
    frame.single = tiny_request();
    hit_and_run.send_frame(std::move(frame));
  }  // socket closes here, mid-stream
  wait_for_served(runner.daemon(), 1);

  {
    // A partial frame (no terminating newline) followed by EOF is a clean
    // detach, not a parse attempt.
    FdHandle fd = connect_unix(runner.socket());
    ASSERT_TRUE(write_all(fd.get(), R"({"isex": 3, "type": "pi)"));
  }

  {
    // Immediate disconnect without a single byte.
    FdHandle fd = connect_unix(runner.socket());
  }

  // After all of that the daemon still serves normally.
  IsexClient client(runner.socket());
  const Json payload = client.explore(tiny_request());
  EXPECT_EQ(payload.at("kind").as_string(), "exploration");
  EXPECT_GE(payload.at("store").at("requests_served").as_uint(), 2u);
}

// --- admission-queue policies (deterministic, no sockets) -------------------

/// Records every event it receives; optionally plays dead.
class RecordingSink : public EventSink {
 public:
  bool emit(const std::string& id, const std::string& event, const Json& data) override {
    if (dead) return false;
    std::lock_guard<std::mutex> lock(mu);
    events.emplace_back(id, event);
    last_data = data;
    return true;
  }

  std::vector<std::pair<std::string, std::string>> snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return events;
  }

  std::mutex mu;
  std::vector<std::pair<std::string, std::string>> events;
  Json last_data;
  bool dead = false;
};

RequestFrame frame_for(const std::string& workload, int num_instructions = 4) {
  RequestFrame frame;
  frame.type = "explore";
  frame.single = tiny_request();
  frame.single->workload = workload;
  frame.single->num_instructions = num_instructions;
  return frame;
}

TEST(ServiceRobustness, AdmissionQueueBoundsAndDedupsDeterministically) {
  AdmissionQueue queue(/*max_queue=*/2);
  auto sink = std::make_shared<RecordingSink>();

  // Two distinct jobs fill the queue; the third distinct one is rejected.
  EXPECT_FALSE(queue.submit(frame_for("fir"), "a", sink).deduped);
  EXPECT_FALSE(queue.submit(frame_for("sha1"), "b", sink).deduped);
  try {
    queue.submit(frame_for("crc32"), "c", sink);
    FAIL() << "third distinct submit should hit the bound";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), std::string(kErrQueueFull));
  }

  // A duplicate of a queued job attaches instead — dedup adds no work, so
  // it succeeds even at capacity.
  const AdmissionResult dup = queue.submit(frame_for("fir"), "d", sink);
  EXPECT_TRUE(dup.deduped);
  EXPECT_EQ(queue.depth(), 2u);

  // Every admitted subscriber got exactly one accepted event, in order.
  const auto events = sink->snapshot();
  ASSERT_EQ(events.size(), 3u);
  for (const auto& [id, event] : events) EXPECT_EQ(event, "accepted");
  EXPECT_EQ(events[0].first, "a");
  EXPECT_EQ(events[2].first, "d");

  // Workers see the dedup: ONE fir job carries both its subscribers.
  // Finishing every job reopens both the bound and the fingerprint.
  for (const char* workload : {"fir", "sha1"}) {
    const ServiceJobPtr job = queue.next();
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->frame().single->workload, workload);
    job->publish_terminal("report", Json::object());
    queue.finish(job);
  }
  EXPECT_TRUE(queue.idle());
  EXPECT_FALSE(queue.submit(frame_for("fir"), "e", sink).deduped);
  queue.finish(queue.next());

  // After drain(), everything is refused with shutting-down.
  queue.drain();
  try {
    queue.submit(frame_for("gsm"), "f", sink);
    FAIL() << "post-drain submit should be refused";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), std::string(kErrShuttingDown));
  }
  queue.close();
  EXPECT_EQ(queue.next(), nullptr);
}

/// Workloads whose frame_for() frames share type, scheme and constraints;
/// only the workload (and so the fingerprint) differs.
const char* const kSameShapeWorkloads[] = {"fir", "sha1", "gsm", "g721"};

TEST(ServiceRobustness, NextDispatchesMixedJobsInAdmissionOrder) {
  AdmissionQueue queue(/*max_queue=*/8);
  auto sink = std::make_shared<RecordingSink>();

  // Same-shape and different-shape requests interleaved: a different port
  // constraint, a different instruction count, then same-shape ones again.
  RequestFrame wide = frame_for("crc32");
  wide.single->constraints.max_inputs = 4;
  queue.submit(frame_for("fir"), "a", sink);
  queue.submit(std::move(wide), "b", sink);
  queue.submit(frame_for("sha1"), "c", sink);
  queue.submit(frame_for("gsm", /*num_instructions=*/7), "d", sink);
  queue.submit(frame_for("g721"), "e", sink);

  // Every admission reports the constant one-job dispatch on the wire.
  EXPECT_FALSE(sink->last_data.at("batched").as_bool());
  EXPECT_EQ(sink->last_data.at("batch_size").as_uint(), 1u);

  for (const char* workload : {"fir", "crc32", "sha1", "gsm", "g721"}) {
    const ServiceJobPtr job = queue.next();
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->frame().single->workload, workload);
    queue.finish(job);
  }
  EXPECT_TRUE(queue.idle());
}

TEST(ServiceRobustness, CompatibleQueuedJobsGoOneToEachOfTwoWorkers) {
  AdmissionQueue queue(/*max_queue=*/8);
  auto sink = std::make_shared<RecordingSink>();
  queue.submit(frame_for("fir"), "a", sink);
  queue.submit(frame_for("sha1"), "b", sink);

  // Two workers each ask for one job. Neither may take both: the second
  // worker must not sit blocked while a queued job waits behind the first.
  ServiceJobPtr taken[2];
  std::atomic<int> returned{0};
  std::vector<std::thread> workers;
  for (ServiceJobPtr& slot : taken) {
    workers.emplace_back([&queue, &slot, &returned] {
      slot = queue.next();
      returned.fetch_add(1);
    });
  }
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (returned.load() < 2 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(returned.load(), 2) << "a worker stayed blocked with a job queued";
  queue.close();  // releases a worker that is still blocked
  for (std::thread& w : workers) w.join();

  ASSERT_NE(taken[0], nullptr);
  ASSERT_NE(taken[1], nullptr);
  EXPECT_NE(taken[0], taken[1]);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(ServiceRobustness, WatchdogScanCancelsDispatchedJobsNeverQueuedOnes) {
  AdmissionQueue queue(/*max_queue=*/8);
  auto sink = std::make_shared<RecordingSink>();
  std::vector<ServiceJobPtr> jobs;
  for (const char* workload : kSameShapeWorkloads) {
    jobs.push_back(queue.submit(frame_for(workload), workload, sink).job);
  }

  // Only the dispatched job's clock is running; the queued ones have not
  // started, so even a zero ceiling cannot charge them anything.
  ASSERT_EQ(queue.next(), jobs[0]);
  EXPECT_EQ(queue.cancel_overrunning(0, "watchdog"), 1u);
  EXPECT_TRUE(jobs[0]->cancel().cancelled());
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_FALSE(jobs[i]->cancel().cancelled()) << kSameShapeWorkloads[i];
  }

  ASSERT_EQ(queue.next(), jobs[1]);
  EXPECT_EQ(queue.cancel_overrunning(0, "watchdog"), 1u);  // jobs[0] already was
  EXPECT_TRUE(jobs[1]->cancel().cancelled());
  EXPECT_FALSE(jobs[2]->cancel().cancelled());
  EXPECT_FALSE(jobs[3]->cancel().cancelled());
}

TEST(ServiceRobustness, DepthCountsEveryJobNotYetRunning) {
  AdmissionQueue queue(/*max_queue=*/4);
  auto sink = std::make_shared<RecordingSink>();
  for (const char* workload : kSameShapeWorkloads) queue.submit(frame_for(workload), workload, sink);
  EXPECT_EQ(queue.depth(), 4u);

  // Each dispatch moves exactly one job from waiting to running, so it
  // frees exactly one slot under the bound.
  const ServiceJobPtr first = queue.next();
  EXPECT_EQ(queue.depth(), 3u);
  queue.submit(frame_for("crc32"), "e", sink);
  EXPECT_EQ(queue.depth(), 4u);
  EXPECT_THROW(queue.submit(frame_for("adpcmdecode"), "f", sink), ServiceError);

  queue.finish(first);
  EXPECT_FALSE(queue.idle());
  for (std::size_t left = 4; left > 0; --left) {
    EXPECT_EQ(queue.depth(), left);
    queue.finish(queue.next());
  }
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_TRUE(queue.idle());
}

TEST(ServiceRobustness, DeadSubscribersAreDroppedAndLateAttachersReplayTheTerminal) {
  ServiceJob job(frame_for("fir"), 1);
  auto alive = std::make_shared<RecordingSink>();
  auto dying = std::make_shared<RecordingSink>();
  job.attach("a", alive, Json::object());
  job.attach("d", dying, Json::object());

  job.publish("extracted", Json::object());
  dying->dead = true;  // client vanishes mid-stream
  job.publish("identified", Json::object());
  job.publish("selected", Json::object());

  Json terminal = Json::object();
  terminal.set("kind", std::string("exploration"));
  job.publish_terminal("report", terminal);
  EXPECT_TRUE(job.finished());

  // The live subscriber saw the full stream; the dead one stopped cold and
  // was dropped without disturbing anything.
  std::vector<std::string> alive_events;
  for (const auto& [id, event] : alive->snapshot()) alive_events.push_back(event);
  const std::vector<std::string> full = {"accepted", "extracted", "identified",
                                         "selected", "report"};
  EXPECT_EQ(alive_events, full);
  EXPECT_EQ(dying->snapshot().size(), 2u);  // accepted + extracted only

  // A subscriber attaching after the fact still gets accepted + the
  // recorded terminal — never a silent hang.
  auto late = std::make_shared<RecordingSink>();
  job.attach("l", late, Json::object());
  const auto late_events = late->snapshot();
  ASSERT_EQ(late_events.size(), 2u);
  EXPECT_EQ(late_events[0].second, "accepted");
  EXPECT_EQ(late_events[1].second, "report");
  EXPECT_EQ(late->last_data.at("kind").as_string(), "exploration");
}

// --- snapshot quarantine and fault injection --------------------------------

/// Clears the process-global fault injector on scope exit so no test can
/// leak an armed fault point into the rest of the binary.
struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::instance().reset(); }
  FaultInjector& fi = FaultInjector::instance();
};

std::string temp_memo_path(const std::string& tag) {
  return testing::TempDir() + "isexr-" + tag + "-" +
         std::to_string(static_cast<unsigned>(::getpid())) + ".memo";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ServiceRobustness, CorruptSnapshotsAreQuarantinedAndTheStoreBootsCold) {
  const std::string path = temp_memo_path("garbage");
  const std::string quarantine = path + ".corrupt";
  { std::ofstream(path) << "this was never a memo snapshot"; }

  ResultStore store(path);
  EXPECT_TRUE(store.quarantined());
  EXPECT_FALSE(store.warm_started());
  // The bad file moved aside — evidence kept, boot path cleared.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
  EXPECT_EQ(slurp(quarantine), "this was never a memo snapshot");

  // The quarantined store persists normally from here on.
  store.note_activity();
  EXPECT_TRUE(store.snapshot());
  ResultStore next(path);
  EXPECT_TRUE(next.warm_started());
  EXPECT_FALSE(next.quarantined());
  ::unlink(path.c_str());
  ::unlink(quarantine.c_str());
}

TEST(ServiceRobustness, TornSnapshotWritesQuarantineOnTheNextBoot) {
  // Regression for the crash-mid-snapshot scenario, driven through the
  // deterministic snapshot-write fault: the write tears the file and throws,
  // the store stays dirty (nothing was persisted), and the next boot
  // quarantines the torn file instead of wedging.
  InjectorGuard guard;
  const std::string path = temp_memo_path("torn");

  ResultStore store(path);
  store.note_activity();
  guard.fi.arm("snapshot-write");
  EXPECT_THROW(store.snapshot(), Error);
  guard.fi.reset();
  EXPECT_EQ(::access(path.c_str(), F_OK), 0);  // the torn file is on disk

  ResultStore rebooted(path);
  EXPECT_TRUE(rebooted.quarantined());
  EXPECT_FALSE(rebooted.warm_started());
  EXPECT_EQ(::access((path + ".corrupt").c_str(), F_OK), 0);

  // The injected failure left the dirty flag set, so the retried snapshot
  // (fault disarmed) persists the state that almost got lost.
  EXPECT_TRUE(store.snapshot());
  ResultStore recovered(path);
  EXPECT_TRUE(recovered.warm_started());
  ::unlink(path.c_str());
  ::unlink((path + ".corrupt").c_str());
}

TEST(ServiceRobustness, NegativeBitVectorSizeInASnapshotIsQuarantined) {
  // Unchecked, a bit vector of size -1 becomes a SIZE_MAX-bit vector with
  // no storage, and setting its first bit writes through a null buffer:
  // the daemon would die at boot, before quarantine moves the file aside.
  const std::string path = temp_memo_path("negsize");
  {
    ResultStore store(path);
    Explorer(LatencyModel::standard_018um(), store.cache()).run(tiny_request());
    store.note_activity();
    ASSERT_TRUE(store.snapshot());
  }
  const std::string saved = slurp(path);
  // The size of a bit vector with at least one set bit.
  const std::regex size_field(R"("size": ?\d+(?=, ?"bits": ?\[\d))");
  ASSERT_TRUE(std::regex_search(saved, size_field)) << "snapshot holds no non-empty cut";
  {
    std::ofstream(path, std::ios::trunc)
        << std::regex_replace(saved, size_field, R"("size": -1)",
                              std::regex_constants::format_first_only);
  }

  ResultStore rebooted(path);
  EXPECT_TRUE(rebooted.quarantined());
  EXPECT_FALSE(rebooted.warm_started());
  EXPECT_EQ(rebooted.cache()->num_entries(), 0u);
  EXPECT_EQ(::access((path + ".corrupt").c_str(), F_OK), 0);
  ::unlink(path.c_str());
  ::unlink((path + ".corrupt").c_str());
}

// --- client-side failure taxonomy -------------------------------------------

TEST(ServiceRobustness, ConnectRefusedIsAConnectErrorAfterEveryAttempt) {
  ClientOptions options;
  options.connect_attempts = 3;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 2;
  const std::string nowhere = temp_socket_path("nowhere");
  try {
    IsexClient client(nowhere, options);
    FAIL() << "connected to a socket nobody listens on";
  } catch (const ConnectError& e) {
    EXPECT_NE(std::string(e.what()).find("3 attempt(s)"), std::string::npos) << e.what();
  }
  // The taxonomy refines SocketError, so legacy catch sites keep working.
  try {
    IsexClient client(nowhere, options);
    FAIL() << "connected to a socket nobody listens on";
  } catch (const SocketError&) {
  }
}

TEST(ServiceRobustness, SilentServerIsATimeoutErrorNotADisconnect) {
  // A listener that never answers: the connection succeeds (backlog), no
  // event ever arrives, and the client's own request timeout fires.
  UnixListener mute(temp_socket_path("mute"));
  ClientOptions options;
  options.request_timeout_ms = 50;
  IsexClient client(mute.path(), options);
  EXPECT_THROW(client.explore(tiny_request()), TimeoutError);
}

TEST(ServiceRobustness, MidStreamServerCloseIsADisconnectError) {
  UnixListener listener(temp_socket_path("drop"));
  std::thread server([&] {
    // Accept one connection and close it immediately — a daemon crash as
    // seen from the client.
    FdHandle victim = listener.accept_client(/*timeout_ms=*/5000);
  });
  IsexClient client(listener.path());
  EXPECT_THROW(client.explore(tiny_request()), DisconnectError);
  server.join();
}

TEST(ServiceRobustness, InjectedAcceptFaultsNeverKillTheDaemonAndReconnectRidesThrough) {
  // The daemon's first two accepts fail (after accepting — the client sees
  // its connection die); the serve loop must shrug both off, and the
  // client's reconnect loop must ride through under the same correlation
  // id until the third accept sticks.
  InjectorGuard guard;
  guard.fi.arm("socket-accept:0:2");
  DaemonRunner runner(base_config("afault"));

  ClientOptions options;
  options.connect_attempts = 4;
  options.reconnect_attempts = 4;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 4;
  IsexClient client(runner.socket(), options);
  const Json payload = client.explore(tiny_request());
  EXPECT_EQ(payload.at("kind").as_string(), "exploration");

  // And the daemon is fully healthy for fresh connections.
  guard.fi.reset();
  IsexClient after(runner.socket());
  EXPECT_GE(after.ping().at("requests_served").as_uint(), 1u);
}

}  // namespace
}  // namespace isex
