// Protocol-version enforcement and the in-band ir_text payload: the service
// speaks version 3 only, so v1/v2 frames (and any other tag) are structured
// `unsupported-version` rejections, from the parser and through the daemon;
// ir_text requests serve graph payloads end to end while host paths stay
// out. The daemon half runs against a real socket.
#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <thread>

#include "api/explorer.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "text/workload_file.hpp"
#include "workloads/workload.hpp"

namespace isex {
namespace {

ExplorationRequest crc_request() {
  ExplorationRequest request;
  request.workload = "crc32";
  request.scheme = "iterative";
  request.constraints.max_inputs = 4;
  request.constraints.max_outputs = 2;
  request.num_instructions = 6;
  return request;
}

// --- protocol level ---------------------------------------------------------

TEST(ServiceVersion, RequestFramesRoundTripTheirVersionTag) {
  RequestFrame frame;
  frame.id = "r1";
  frame.type = "explore";
  frame.single = crc_request();
  const std::string line = dump_request_frame(frame);
  EXPECT_NE(line.find("\"isex\":3"), std::string::npos) << line;

  const RequestFrame parsed = parse_request_frame(line);
  EXPECT_EQ(parsed.id, "r1");
  EXPECT_EQ(parsed.single->workload, "crc32");
}

TEST(ServiceVersion, OutOfRangeVersionsAreStructuredRejections) {
  for (const char* line :
       {R"({"isex": 1, "id": "x", "type": "ping"})",
        R"({"isex": 2, "id": "x", "type": "ping"})",
        R"({"isex": 4, "id": "x", "type": "ping"})",
        R"({"isex": 0, "id": "x", "type": "ping"})",
        R"({"isex": 4294967299, "id": "x", "type": "ping"})"}) {
    try {
      parse_request_frame(line);
      FAIL() << line << " unexpectedly parsed";
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.code(), kErrUnsupportedVersion) << e.what();
    }
  }
}

TEST(ServiceVersion, RegistryRequestsFingerprintIdenticallyAcrossVersions) {
  // The version tag is outside the work fingerprint: a frame built in code
  // and the same frame read back off the wire dedup together.
  RequestFrame frame;
  frame.type = "explore";
  frame.single = crc_request();
  const RequestFrame wire = parse_request_frame(dump_request_frame(frame));
  EXPECT_EQ(request_fingerprint(wire), request_fingerprint(frame));
  // But different work — text payload vs registry name — must not collide.
  RequestFrame text = frame;
  text.single->workload.clear();
  text.single->ir_text = dump_workload(find_workload("crc32"));
  EXPECT_NE(request_fingerprint(text), request_fingerprint(frame));
}

// --- daemon level -----------------------------------------------------------

std::string temp_socket_path(const std::string& tag) {
  // Keep it short: AF_UNIX paths cap out near 100 bytes.
  return testing::TempDir() + "isexd-" + tag + "-" +
         std::to_string(static_cast<unsigned>(::getpid())) + ".sock";
}

class DaemonRunner {
 public:
  explicit DaemonRunner(DaemonConfig config)
      : daemon_(std::move(config)), thread_([this] { daemon_.serve(); }) {}

  ~DaemonRunner() {
    daemon_.request_stop();
    if (thread_.joinable()) thread_.join();
  }

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

TEST(ServiceVersionDaemon, UnsupportedVersionGetsAStructuredError) {
  DaemonRunner runner(base_config("v4"));
  FdHandle fd = connect_unix(runner.socket());
  FrameReader reader(fd.get(), 1 << 22);
  // Retired dialects (a v1 registry request, a v2 ir_text request) and an
  // unknown future version all get the same structured rejection, rendered
  // in the one dialect the daemon speaks.
  const auto tagged = [](RequestFrame frame, const std::string& id, int version) {
    frame.id = id;
    std::string line = dump_request_frame(frame);
    const std::string tag = "\"isex\":" + std::to_string(kServiceProtocolVersion);
    line.replace(line.find(tag), tag.size(), "\"isex\":" + std::to_string(version));
    return line;
  };
  RequestFrame legacy;
  legacy.type = "explore";
  legacy.single = crc_request();
  const std::string v1 = tagged(legacy, "v1", 1);
  legacy.single->workload.clear();
  legacy.single->ir_text = dump_workload(find_workload("crc32"));
  const std::string v2 = tagged(legacy, "v2", 2);
  const std::pair<std::string, std::string> frames[] = {
      {"v1", v1},
      {"v2", v2},
      {"future", R"({"isex": 4, "id": "future", "type": "ping"})"
                 "\n"}};
  for (const auto& [id, frame] : frames) {
    ASSERT_TRUE(write_all(fd.get(), frame));
    const std::optional<std::string> line = reader.read_frame();
    ASSERT_TRUE(line.has_value()) << id;
    const EventFrame event = parse_event_frame(*line);
    EXPECT_EQ(event.id, id);
    EXPECT_EQ(event.event, "error") << id;
    EXPECT_EQ(event.data.at("code").as_string(), kErrUnsupportedVersion) << id;
    EXPECT_EQ(Json::parse(*line).at("isex").as_int(), kServiceProtocolVersion) << id;
  }
}

TEST(ServiceVersionDaemon, IrTextRequestsServeGraphPayloadsEndToEnd) {
  DaemonRunner runner(base_config("irtext"));

  ExplorationRequest by_text = crc_request();
  by_text.workload.clear();
  by_text.ir_text = dump_workload(find_workload("crc32"));

  IsexClient client(runner.socket());
  const Json payload = client.explore(by_text);
  const std::string served = stable_report_json(payload.at("report")).dump();

  // The served report must be byte-identical to an in-process run of the
  // builder twin (both cold, so even the cache deltas agree).
  const Explorer local;
  const std::string in_process =
      stable_report_json(local.run(crc_request()).to_json()).dump();
  EXPECT_EQ(served, in_process);
}

TEST(ServiceVersionDaemon, RegistryStrictnessRejectsPathWorkloads) {
  // The registry dispatch that makes `--ir FILE` work locally must NOT leak
  // into the service: a daemon never opens client-supplied host paths.
  DaemonRunner runner(base_config("paths"));
  ExplorationRequest request = crc_request();
  request.workload = "/tmp/evil.isex";
  IsexClient client(runner.socket());
  try {
    client.explore(request);
    FAIL() << "path workload unexpectedly accepted";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), kErrBadRequest) << e.what();
  }
}

}  // namespace
}  // namespace isex
