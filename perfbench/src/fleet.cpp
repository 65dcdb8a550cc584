#include "fleet.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "measure.hpp"

extern char **environ;

namespace perfbench {

namespace {

constexpr double kStartTimeoutS = 30.0;
constexpr double kStopGraceS = 10.0;

bool
exited(pid_t pid)
{
    int status = 0;
    pid_t r = ::waitpid(pid, &status, WNOHANG);
    return r == pid || (r < 0 && errno == ECHILD);
}

/** Wait up to @p seconds for @p pid (our child) to exit. */
bool
waitExit(pid_t pid, double seconds)
{
    double until = nowSeconds() + seconds;
    while (nowSeconds() < until) {
        if (exited(pid))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return exited(pid);
}

bool
alive(pid_t pid)
{
    return ::kill(pid, 0) == 0;
}

} // namespace

ServerProcess::ServerProcess(std::vector<std::string> argv,
                             const std::string &port_file,
                             const std::string &log_path)
{
    std::remove(port_file.c_str());
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                     O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                     log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                     STDERR_FILENO);
    std::vector<char *> args;
    for (std::string &a : argv)
        args.push_back(a.data());
    args.push_back(nullptr);
    int rc = posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                         environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0)
        throw std::runtime_error("cannot spawn " + argv[0]);

    double until = nowSeconds() + kStartTimeoutS;
    while (port_ == 0) {
        std::ifstream in(port_file);
        std::string text;
        // The port file is complete once its newline is written.
        if (std::getline(in, text) && !in.eof())
            port_ = std::atoi(text.c_str());
        if (port_ != 0)
            break;
        if (exited(pid_)) {
            pid_ = -1;
            throw std::runtime_error(argv[0] + " exited during start-up");
        }
        if (nowSeconds() > until) {
            stop();
            throw std::runtime_error(argv[0] + " did not publish a port");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
}

ServerProcess::~ServerProcess() { stop(); }

void
ServerProcess::stop()
{
    if (pid_ <= 0)
        return;
    std::vector<pid_t> children = childProcesses(pid_);
    ::kill(pid_, SIGTERM);
    if (!waitExit(pid_, kStopGraceS)) {
        ::kill(pid_, SIGKILL);
        waitExit(pid_, kStopGraceS);
    }
    pid_ = -1;
    // Workers a dying lb left behind are re-parented to us (subreaper).
    for (pid_t child : children) {
        if (!alive(child))
            continue;
        ::kill(child, SIGTERM);
        if (!waitExit(child, kStopGraceS)) {
            ::kill(child, SIGKILL);
            waitExit(child, kStopGraceS);
        }
    }
    reapChildren();
}

Fleet::Fleet(const Binaries &bins, const FleetConfig &cfg)
    : workers_(cfg.workers),
      lb_({bins.lb, "--serve-bin", bins.serve, "--workers",
           std::to_string(cfg.workers), "--worker-arg", "--threads",
           "--worker-arg", "1", "--store-dir", cfg.storeDir, "--port-file",
           cfg.workDir + "/lb.port"},
          cfg.workDir + "/lb.port", cfg.workDir + "/lb.log")
{}

std::vector<pid_t>
Fleet::workerPids() const
{
    double until = nowSeconds() + kStartTimeoutS;
    std::vector<pid_t> pids = childProcesses(lb_.pid());
    while (static_cast<int>(pids.size()) < workers_ && nowSeconds() < until) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        pids = childProcesses(lb_.pid());
    }
    return pids;
}

ServerProcess
spawnStandalone(const Binaries &bins, const std::string &store_dir,
                const std::string &work_dir, const std::string &tag)
{
    std::string port_file = work_dir + "/" + tag + ".port";
    return ServerProcess({bins.serve, "--tcp", "--threads", "1",
                          "--store-dir", store_dir, "--port-file",
                          port_file},
                         port_file, work_dir + "/" + tag + ".log");
}

void
becomeSubreaper()
{
    ::prctl(PR_SET_CHILD_SUBREAPER, 1);
}

void
reapChildren()
{
    int status = 0;
    while (::waitpid(-1, &status, WNOHANG) > 0) {
    }
}

} // namespace perfbench
