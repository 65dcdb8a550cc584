/**
 * @file
 * Child processes the benchmark starts: a redqaoa_lb fleet (the lb
 * plus its redqaoa_serve workers) and a standalone redqaoa_serve for
 * the lb-hop comparison. Each is stopped and reaped by its destructor.
 */

#ifndef PERFBENCH_FLEET_HPP
#define PERFBENCH_FLEET_HPP

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

/** Binaries the benchmark drives. */
struct Binaries
{
    std::string lb;
    std::string serve;
};

/** A spawned server process publishing its TCP port through a file. */
class ServerProcess
{
  public:
    /**
     * Spawn @p argv (argv[0] is the binary) with stdout/stderr sent to
     * @p log_path, then wait until @p port_file holds a port. Throws
     * std::runtime_error when the process dies or times out first.
     */
    ServerProcess(std::vector<std::string> argv, const std::string &port_file,
                  const std::string &log_path);
    ~ServerProcess();

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    pid_t pid() const { return pid_; }
    int port() const { return port_; }

    /** SIGTERM, wait, SIGKILL on timeout; reaps every orphaned child. */
    void stop();

  private:
    pid_t pid_ = -1;
    int port_ = 0;
};

/** The redqaoa_lb front with @p workers single-threaded workers. */
struct FleetConfig
{
    int workers = 2;
    std::string storeDir; //!< Fresh per fleet.
    std::string workDir;  //!< Port and log files.
};

class Fleet
{
  public:
    Fleet(const Binaries &bins, const FleetConfig &cfg);

    int port() const { return lb_.port(); }
    pid_t lbPid() const { return lb_.pid(); }
    /** The lb's live worker processes (waits until all are up). */
    std::vector<pid_t> workerPids() const;

    void stop() { lb_.stop(); }

  private:
    int workers_;
    ServerProcess lb_;
};

/** A standalone redqaoa_serve --tcp --threads 1 (lb-hop baseline). */
ServerProcess spawnStandalone(const Binaries &bins,
                              const std::string &store_dir,
                              const std::string &work_dir,
                              const std::string &tag);

/** Make the calling process the reaper of orphaned descendants. */
void becomeSubreaper();

/** Reap every exited child without blocking. */
void reapChildren();

} // namespace perfbench

#endif // PERFBENCH_FLEET_HPP
