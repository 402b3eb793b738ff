/**
 * @file
 * dse_server: the DSE-as-a-service front end.
 *
 * Serves the line-delimited JSON query protocol (DESIGN.md §12)
 * either over TCP (default) or over stdin/stdout for piping:
 *
 *   dse_server --port 7070 --jobs 4 --workers 2
 *   echo '{"id": 1, "kind": "design", "point": {...}}' \
 *       | dse_server --stdio
 *
 * Usage: dse_server [--port N] [--bind ADDR] [--jobs N]
 *                   [--workers N] [--stdio]
 *   --port N     TCP port (default 0 = ephemeral, printed at start)
 *   --bind ADDR  IPv4 bind address (default 127.0.0.1)
 *   --jobs N     engine sweep threads (default: hardware)
 *   --workers N  server worker threads draining the queue (default 2)
 *   --stdio      answer frames from stdin on stdout, then exit
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <iostream>
#include <thread>

#include "example_args.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "util/logging.hh"

using namespace dronedse;

namespace {

struct Options
{
    int port = 0;
    std::string bindAddress = "127.0.0.1";
    int jobs = 0; // 0 = hardware concurrency
    int workers = 2;
    bool stdio = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    examples::ExampleArgs args(argc, argv, "dse_server",
                               "[--port N] [--bind ADDR] [--jobs N] "
                               "[--workers N] [--stdio]");
    while (args.next()) {
        if (args.intArg("--port", opts.port, 0)) {
            if (opts.port > 65535)
                fatal("dse_server: --port expects 0..65535");
            continue;
        }
        if (args.stringArg("--bind", opts.bindAddress))
            continue;
        if (args.intArg("--jobs", opts.jobs, 1))
            continue;
        if (args.intArg("--workers", opts.workers, 1))
            continue;
        if (args.flag("--stdio")) {
            opts.stdio = true;
            continue;
        }
        args.unknown();
    }
    return opts;
}

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true);
}

int
runStdio(serve::Service &service)
{
    // One frame per line in, one reply per line out; the wait the
    // admission controller sees is zero (synchronous path).
    std::string line;
    double t = 0.0;
    while (std::getline(std::cin, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        const std::string reply = service.handleFrame(line, t);
        std::fputs(reply.c_str(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
        t += 1e-3;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);

    serve::ServiceOptions service_options;
    service_options.engine.threads = opts.jobs;

    if (opts.stdio) {
        serve::Service service{service_options};
        return runStdio(service);
    }

    serve::ServerOptions server_options;
    server_options.service = service_options;
    server_options.bindAddress = opts.bindAddress;
    server_options.port = static_cast<std::uint16_t>(opts.port);
    server_options.workers = opts.workers;

    serve::Server server{server_options};
    const std::uint16_t port = server.start();
    std::printf("dse_server ready on %s:%u (%d worker(s); Ctrl-C to "
                "stop)\n",
                opts.bindAddress.c_str(), port, opts.workers);
    std::fflush(stdout);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    while (!g_stop.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    server.stop();
    std::printf("dse_server stopped.\n");
    return 0;
}
