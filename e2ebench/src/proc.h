// Process hygiene for the benchmark: every server and worker it starts runs
// in a process group of its own, and every exit path -- normal, mismatch,
// timeout, SIGTERM -- kills and reaps each group it registered.
//
// The benchmark process makes itself a child subreaper at start-up, so the
// shard workers a server forks are re-parented to it when the server dies
// and can be reaped here instead of lingering under init.

#ifndef E2EBENCH_PROC_H_
#define E2EBENCH_PROC_H_

#include <sys/types.h>

#include <string>
#include <vector>

namespace e2ebench {

/// Subreaper, SIGTERM/SIGINT/SIGHUP handlers and a watchdog thread that
/// kills every registered group and exits with code 3 after
/// `deadline_seconds` (so the benchmark itself never overruns its budget).
void InstallProcessHygiene(double deadline_seconds);

/// Stops the watchdog (call once before a normal return from main).
void StopWatchdog();

/// Starts `argv` (argv[0] is a path) as the leader of a new process group,
/// stdout and stderr appended to `log_path`. Returns the pid (== pgid), or
/// -1 when fork/exec failed.
pid_t SpawnGroup(const std::vector<std::string>& argv,
                 const std::string& log_path);

/// SIGKILLs every process of group `pgid`, reaps them all and forgets the
/// group. Idempotent.
void KillGroup(pid_t pgid);

/// KillGroup for every registered group.
void KillAllGroups();

/// Peak resident set (VmHWM) of `pid` in KiB; 0 when unreadable.
long PeakRssKib(pid_t pid);

/// A scratch directory removed (recursively) on destruction.
class TempDir {
 public:
  /// Creates `path` (and its parent); the benchmark aborts on failure.
  explicit TempDir(std::string path);
  ~TempDir();

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_PROC_H_
