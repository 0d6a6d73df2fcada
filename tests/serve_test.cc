// End-to-end tests of the dpclustx_serve binary's process model: one event
// loop on the main thread serves stdin/stdout and every --listen socket,
// the periodic metrics dump and snapshot are loop timers, and stdin EOF
// leaves the durable state on disk before stdout closes.
//
// Each test forks the built binary (skipped, loudly, when it is missing —
// ctest builds it via add_dependencies) and drives it over pipes and unix
// sockets.

#include <dirent.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/status.h"
#include "service/transport.h"

extern char** environ;

namespace dpclustx::service {
namespace {

std::string ServeBinary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  EXPECT_GT(n, 0);
  buf[n] = '\0';
  std::string path(buf);                   // .../build/tests/serve_test
  path = path.substr(0, path.rfind('/'));  // .../build/tests
  return path.substr(0, path.rfind('/')) + "/tools/dpclustx_serve";
}

std::string ScratchPath(const std::string& tag) {
  return ::testing::TempDir() + "/serve_" + tag + "_" +
         std::to_string(::getpid());
}

/// Unix socket paths are limited to ~108 bytes; keep them short.
std::string SocketPath(const std::string& tag) {
  return "/tmp/dpx_st_" + tag + "_" + std::to_string(::getpid()) + ".sock";
}

size_t ThreadCount(pid_t pid) {
  size_t threads = 0;
  DIR* dir = ::opendir(("/proc/" + std::to_string(pid) + "/task").c_str());
  if (dir == nullptr) return 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++threads;
  }
  ::closedir(dir);
  return threads;
}

bool WaitForPath(const std::string& path) {
  for (int i = 0; i < 400 && ::access(path.c_str(), F_OK) != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return ::access(path.c_str(), F_OK) == 0;
}

/// A dpclustx_serve child on stdin/stdout pipes, with its out-of-order
/// responses correlated by string id.
class ServeProcess {
 public:
  explicit ServeProcess(const std::vector<std::string>& flags,
                        const std::vector<std::string>& extra_env = {}) {
    const std::string binary = ServeBinary();
    if (::access(binary.c_str(), X_OK) != 0) return;
    std::vector<std::string> args = {binary};
    args.insert(args.end(), flags.begin(), flags.end());
    // `extra_env` entries replace inherited ones of the same name.
    std::vector<std::string> env = extra_env;
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string entry = *e;
      const std::string name = entry.substr(0, entry.find('=') + 1);
      bool replaced = false;
      for (const std::string& extra : extra_env) {
        replaced = replaced || extra.rfind(name, 0) == 0;
      }
      if (!replaced) env.push_back(entry);
    }
    // Built before fork: the child only dup2s and execs.
    std::vector<char*> argv;
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    std::vector<char*> envp;
    for (const std::string& e : env) {
      envp.push_back(const_cast<char*>(e.c_str()));
    }
    envp.push_back(nullptr);
    int to_child[2];
    int from_child[2];
    EXPECT_EQ(::pipe(to_child), 0);
    EXPECT_EQ(::pipe(from_child), 0);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      ::execve(argv[0], argv.data(), envp.data());
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    stdin_fd_ = to_child[1];
    stdout_fd_ = from_child[0];
  }

  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;
  ~ServeProcess() {
    CloseStdin();
    Wait();
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
  }

  bool started() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }

  /// Every response that carried a string id, by id.
  const std::map<std::string, JsonValue>& received() const {
    return received_;
  }

  /// Writes `payload` to stdin in full (blocking while the child's pipe is
  /// full), then closes stdin — a batch piped in the way `cat file |` does.
  void FeedAndClose(const std::string& payload) {
    size_t written = 0;
    while (written < payload.size()) {
      const ssize_t n = ::write(stdin_fd_, payload.data() + written,
                                payload.size() - written);
      if (n <= 0) break;
      written += static_cast<size_t>(n);
    }
    EXPECT_EQ(written, payload.size());
    CloseStdin();
  }

  void Send(const std::string& line) {
    const std::string payload = line + "\n";
    ASSERT_EQ(::write(stdin_fd_, payload.data(), payload.size()),
              static_cast<ssize_t>(payload.size()));
  }

  /// Sends `request` (carrying string id `id`) and waits up to 30 s for
  /// that id's response; Null on timeout or EOF.
  JsonValue Call(const std::string& id, const std::string& request) {
    Send(request);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      auto it = received_.find(id);
      if (it != received_.end()) return it->second;
      if (!ReadSome(1000)) break;
    }
    ADD_FAILURE() << "no response for id '" << id << "'";
    return JsonValue::Null();
  }

  void CloseStdin() {
    if (stdin_fd_ >= 0) ::close(stdin_fd_);
    stdin_fd_ = -1;
  }

  /// Reads stdout until the child closes it (30 s cap).
  void ReadToEof() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline && ReadSome(1000)) {
    }
  }

  /// Reaps the child; its wait status, or -1 when there is none.
  int Wait() {
    if (pid_ <= 0) return -1;
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return status;
  }

 private:
  /// False at EOF; true after a read or a quiet `timeout_ms`.
  bool ReadSome(int timeout_ms) {
    pollfd pfd = {stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return true;
    char chunk[4096];
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    size_t pos;
    while ((pos = buffer_.find('\n')) != std::string::npos) {
      StatusOr<JsonValue> parsed = JsonValue::Parse(buffer_.substr(0, pos));
      buffer_.erase(0, pos + 1);
      if (parsed.ok() && parsed->type() == JsonValue::Type::kObject &&
          parsed->Has("id") &&
          parsed->at("id").type() == JsonValue::Type::kString) {
        received_[parsed->at("id").AsString()] = *parsed;
      }
    }
    return true;
  }

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  std::string buffer_;
  std::map<std::string, JsonValue> received_;
};

JsonValue SocketCall(ClientChannel& channel, const std::string& request) {
  EXPECT_TRUE(channel.SendLine(request).ok());
  StatusOr<std::string> line = channel.RecvLine(30000);
  if (!line.ok()) {
    ADD_FAILURE() << line.status().ToString();
    return JsonValue::Null();
  }
  StatusOr<JsonValue> parsed = JsonValue::Parse(*line);
  EXPECT_TRUE(parsed.ok()) << *line;
  return parsed.ok() ? *parsed : JsonValue::Null();
}

bool IsOk(const JsonValue& response) {
  return response.type() == JsonValue::Type::kObject && response.Has("ok") &&
         response.at("ok").AsBool();
}

constexpr char kLoad[] =
    R"({"op":"load_dataset","name":"d","source":"synthetic",)"
    R"("generator":"diabetes","rows":200,"seed":1,"id":"load"})";
constexpr char kCluster[] =
    R"({"op":"cluster","dataset":"d","method":"k-means","k":3,"seed":2,)"
    R"("id":"cluster"})";

std::string CreateSession(const std::string& session, const std::string& id) {
  return R"({"op":"create_session","dataset":"d","session":")" + session +
         R"(","epsilon":1.0,"id":")" + id + R"("})";
}

std::string Hist(const std::string& session, double epsilon,
                 const std::string& id) {
  return R"({"op":"hist","session":")" + session +
         R"(","clustering":"default","attribute":"diab_0","epsilon":)" +
         std::to_string(epsilon) + R"(,"id":")" + id + R"("})";
}

std::string Budget(const std::string& session, const std::string& id) {
  return R"({"op":"budget","session":")" + session + R"(","id":")" + id +
         R"("})";
}

TEST(ServeProcessTest, ThreadCountIsInvariantToOptionalFeatures) {
  const std::string dir = ScratchPath("threads");
  std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());
  const std::vector<std::string> env = {"DPCLUSTX_THREADS=1"};
  auto settled_threads = [&](const std::vector<std::string>& flags) {
    ServeProcess serve(flags, env);
    if (!serve.started()) return size_t{0};
    EXPECT_TRUE(IsOk(serve.Call("p", R"({"op":"ping","id":"p"})")));
    // Several 50 ms timer periods: every feature has ticked by now.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return ThreadCount(serve.pid());
  };
  const size_t plain = settled_threads({"--threads", "2"});
  if (plain == 0) GTEST_SKIP() << "dpclustx_serve not built";
  const size_t featured = settled_threads(
      {"--threads", "2", "--listen", "unix:" + SocketPath("threads"),
       "--metrics-dump", dir + "/metrics.prom", "--metrics-interval-ms", "50",
       "--snapshot", dir + "/state.snap", "--snapshot-interval-ms", "50"});
  EXPECT_EQ(featured, plain);
  EXPECT_EQ(::access((dir + "/metrics.prom").c_str(), F_OK), 0);
  EXPECT_EQ(::access((dir + "/state.snap").c_str(), F_OK), 0);
  std::system(("rm -rf " + dir).c_str());
}

TEST(ServeProcessTest, StateIsDurableWhenStdoutCloses) {
  const std::string dir = ScratchPath("durable");
  std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());
  // Interval 0: only the shutdown save can put the session on disk.
  const std::vector<std::string> flags = {
      "--snapshot", dir + "/shard.snap", "--snapshot-interval-ms", "0",
      "--audit-journal", dir + "/shard.journal"};
  {
    ServeProcess first(flags);
    if (!first.started()) GTEST_SKIP() << "dpclustx_serve not built";
    ASSERT_TRUE(IsOk(first.Call("load", kLoad)));
    ASSERT_TRUE(IsOk(first.Call("cluster", kCluster)));
    ASSERT_TRUE(IsOk(first.Call("s", CreateSession("s", "s"))));
    ASSERT_TRUE(IsOk(first.Call("h", Hist("s", 0.25, "h"))));
    // What the router does: EOF on stdin, read stdout to EOF, SIGKILL.
    first.CloseStdin();
    first.ReadToEof();
    ::kill(first.pid(), SIGKILL);
  }
  ServeProcess second(flags);
  const JsonValue budget = second.Call("b", Budget("s", "b"));
  ASSERT_TRUE(IsOk(budget)) << budget.Dump();
  EXPECT_DOUBLE_EQ(budget.at("spent").AsNumber(), 0.25);
  const JsonValue repeat = second.Call("h", Hist("s", 0.25, "h"));
  ASSERT_TRUE(IsOk(repeat)) << repeat.Dump();
  EXPECT_TRUE(repeat.at("cache_hit").AsBool());
  second.CloseStdin();
  EXPECT_EQ(second.Wait(), 0);
  std::system(("rm -rf " + dir).c_str());
}

TEST(ServeProcessTest, StdinAndSocketClientsShareOneEngine) {
  const std::string socket_path = SocketPath("shared");
  ServeProcess serve({"--listen", "unix:" + socket_path});
  if (!serve.started()) GTEST_SKIP() << "dpclustx_serve not built";
  ASSERT_TRUE(WaitForPath(socket_path));
  StatusOr<std::unique_ptr<ClientChannel>> socket =
      ClientChannel::Connect("unix:" + socket_path);
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();

  ASSERT_TRUE(IsOk(serve.Call("load", kLoad)));
  ASSERT_TRUE(IsOk(SocketCall(**socket, kCluster)));
  // A session created on stdin is charged from the socket, and the other
  // way round; each side then reads the other's charge.
  ASSERT_TRUE(IsOk(serve.Call("a", CreateSession("a", "a"))));
  ASSERT_TRUE(IsOk(SocketCall(**socket, CreateSession("b", "b"))));
  const JsonValue charged_a = SocketCall(**socket, Hist("a", 0.25, "ha"));
  ASSERT_TRUE(IsOk(charged_a)) << charged_a.Dump();
  EXPECT_DOUBLE_EQ(charged_a.at("epsilon_charged").AsNumber(), 0.25);
  const JsonValue charged_b = serve.Call("hb", Hist("b", 0.5, "hb"));
  ASSERT_TRUE(IsOk(charged_b)) << charged_b.Dump();
  EXPECT_DOUBLE_EQ(charged_b.at("epsilon_charged").AsNumber(), 0.5);
  EXPECT_DOUBLE_EQ(serve.Call("ba", Budget("a", "ba")).at("spent").AsNumber(),
                   0.25);
  EXPECT_DOUBLE_EQ(SocketCall(**socket, Budget("b", "bb")).at("spent")
                       .AsNumber(),
                   0.5);
  socket->reset();
  serve.CloseStdin();
  EXPECT_EQ(serve.Wait(), 0);
}

TEST(ServeProcessTest, ClientHangupsMidResponseNeverKillTheShard) {
  const std::string socket_path = SocketPath("hangup");
  ServeProcess serve({"--listen", "unix:" + socket_path});
  if (!serve.started()) GTEST_SKIP() << "dpclustx_serve not built";
  ASSERT_TRUE(WaitForPath(socket_path));
  std::string burst;
  for (int i = 0; i < 2000; ++i) burst += "{\"op\":\"ping\"}\n";
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> linger_us(0, 4000);
  for (int attempt = 0; attempt < 50; ++attempt) {
    StatusOr<std::unique_ptr<ClientChannel>> client =
        ClientChannel::Connect("unix:" + socket_path);
    ASSERT_TRUE(client.ok()) << "attempt " << attempt << ": "
                             << client.status().ToString();
    // The server may stop reading once its responses back up; a partial
    // send is fine, the hangup is the point.
    ::send((*client)->fd(), burst.data(), burst.size(),
           MSG_DONTWAIT | MSG_NOSIGNAL);
    std::this_thread::sleep_for(std::chrono::microseconds(linger_us(rng)));
  }
  serve.CloseStdin();
  const int status = serve.Wait();
  ASSERT_TRUE(WIFEXITED(status))
      << "killed by signal " << (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeProcessTest, SyncStdinBatchIsPacedNotShed) {
  // Stdin is read in 64 KiB gulps. Queuing every response of a gulp before
  // any is flushed would take a few hundred ~35 KB budget responses past
  // the 4 MiB hard write limit and shed the rest with ResourceExhausted;
  // stdin reads pause frame by frame at the soft limit instead, so the
  // whole batch is answered.
  ServeProcess serve({"--sync"});
  if (!serve.started()) GTEST_SKIP() << "dpclustx_serve not built";
  constexpr int kCharges = 600;
  constexpr int kBudgets = 250;
  std::string batch = std::string(kLoad) + "\n" + kCluster + "\n" +
                      CreateSession("s", "create") + "\n";
  for (int i = 0; i < kCharges; ++i) {
    // Distinct ε per request: every hist is a fresh, charged release, so
    // the session's ledger grows by one row each.
    batch += Hist("s", 0.001 + 1e-6 * i, "h" + std::to_string(i)) + "\n";
  }
  for (int i = 0; i < kBudgets; ++i) {
    batch += Budget("s", "b" + std::to_string(i)) + "\n";
  }
  std::thread feeder([&] { serve.FeedAndClose(batch); });
  serve.ReadToEof();
  feeder.join();
  const int status = serve.Wait();
  EXPECT_TRUE(WIFEXITED(status));

  size_t shed = 0;
  size_t answered = 0;
  size_t largest = 0;
  for (const auto& [id, response] : serve.received()) {
    ++answered;
    if (!IsOk(response)) {
      ++shed;
      continue;
    }
    if (id[0] == 'b') {
      largest = std::max(largest, response.at("ledger").size());
    }
  }
  EXPECT_EQ(shed, 0u);
  EXPECT_EQ(answered, 3u + kCharges + kBudgets);
  EXPECT_EQ(largest, static_cast<size_t>(kCharges));
}

}  // namespace
}  // namespace dpclustx::service
