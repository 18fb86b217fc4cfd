#include "e2ebench/src/proc.h"

#include <errno.h>
#include <fcntl.h>
#include <ftw.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <set>
#include <thread>

namespace e2ebench {

namespace {

// Fixed slots so the signal handler can read them without locks.
constexpr int kMaxGroups = 64;
std::atomic<pid_t> g_groups[kMaxGroups];

std::mutex g_dirs_mu;
std::set<std::string>* g_dirs = new std::set<std::string>();

std::mutex g_watchdog_mu;
std::condition_variable g_watchdog_cv;
bool g_watchdog_stop = false;
std::thread* g_watchdog = nullptr;

void Register(pid_t pgid) {
  for (auto& slot : g_groups) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pgid)) return;
  }
  std::fprintf(stderr, "e2ebench: too many process groups\n");
  kill(-pgid, SIGKILL);
  std::_Exit(3);
}

// Async-signal-safe: kill and reap, nothing else.
void KillAndReap(pid_t pgid) {
  kill(-pgid, SIGKILL);
  while (true) {
    pid_t r = waitpid(-pgid, nullptr, 0);
    if (r > 0) continue;
    if (r < 0 && errno == EINTR) continue;
    break;  // ECHILD: no child of ours left in the group.
  }
}

void OnFatalSignal(int sig) {
  for (auto& slot : g_groups) {
    pid_t pgid = slot.load();
    if (pgid > 0) KillAndReap(pgid);
  }
  _exit(128 + sig);
}

// Removes `path` recursively; silent when absent.
void RemoveTree(const std::string& path) {
  nftw(
      path.c_str(),
      [](const char* p, const struct stat*, int, struct FTW*) {
        remove(p);
        return 0;
      },
      16, FTW_DEPTH | FTW_PHYS);
}

void RemoveRegisteredDirs() {
  std::lock_guard<std::mutex> lock(g_dirs_mu);
  for (const std::string& dir : *g_dirs) RemoveTree(dir);
  g_dirs->clear();
}

}  // namespace

void InstallProcessHygiene(double deadline_seconds) {
  // Orphaned shard workers (their server was SIGKILLed) re-parent to us.
  prctl(PR_SET_CHILD_SUBREAPER, 1);
  struct sigaction sa = {};
  sa.sa_handler = OnFatalSignal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGHUP, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);
  g_watchdog = new std::thread([deadline_seconds]() {
    std::unique_lock<std::mutex> lock(g_watchdog_mu);
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(deadline_seconds);
    if (g_watchdog_cv.wait_until(lock, deadline,
                                 [] { return g_watchdog_stop; })) {
      return;
    }
    std::fprintf(stderr, "e2ebench: watchdog expired after %.0f s\n",
                 deadline_seconds);
    KillAllGroups();
    RemoveRegisteredDirs();
    std::_Exit(3);
  });
}

void StopWatchdog() {
  if (g_watchdog == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(g_watchdog_mu);
    g_watchdog_stop = true;
  }
  g_watchdog_cv.notify_all();
  g_watchdog->join();
  delete g_watchdog;
  g_watchdog = nullptr;
}

pid_t SpawnGroup(const std::vector<std::string>& argv,
                 const std::string& log_path) {
  // Everything the child touches is prepared before fork: only
  // async-signal-safe calls run between fork and exec.
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    setpgid(0, 0);
    int devnull = open("/dev/null", O_RDONLY);
    if (devnull >= 0) dup2(devnull, 0);
    int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) {
      dup2(log, 1);
      dup2(log, 2);
    }
    execv(args[0], args.data());
    _exit(127);
  }
  setpgid(pid, pid);  // Also in the parent: no window where kill(-pid) misses.
  Register(pid);
  return pid;
}

void KillGroup(pid_t pgid) {
  if (pgid <= 0) return;
  KillAndReap(pgid);
  // Members that are not our children (should the subreaper be refused)
  // still must be gone before we return.
  for (int i = 0; i < 5000 && kill(-pgid, 0) == 0; ++i) usleep(1000);
  for (auto& slot : g_groups) {
    pid_t expected = pgid;
    slot.compare_exchange_strong(expected, 0);
  }
}

void KillAllGroups() {
  for (auto& slot : g_groups) {
    pid_t pgid = slot.load();
    if (pgid > 0) KillGroup(pgid);
  }
}

long PeakRssKib(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

TempDir::TempDir(std::string path) : path_(std::move(path)) {
  RemoveTree(path_);
  size_t slash = path_.rfind('/');
  if (slash != std::string::npos) mkdir(path_.substr(0, slash).c_str(), 0755);
  if (mkdir(path_.c_str(), 0755) != 0) {
    std::fprintf(stderr, "e2ebench: cannot create %s\n", path_.c_str());
    std::exit(2);
  }
  std::lock_guard<std::mutex> lock(g_dirs_mu);
  g_dirs->insert(path_);
}

TempDir::~TempDir() {
  RemoveTree(path_);
  std::lock_guard<std::mutex> lock(g_dirs_mu);
  g_dirs->erase(path_);
}

}  // namespace e2ebench
