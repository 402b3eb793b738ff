/**
 * @file
 * perfbench: the in-process benchmark program of the dronedse library.
 *
 *   perfbench --workload W --seed N --seconds S [--trace-file PATH]
 *             [--inject drop_frontier|flip_oracle|refuse]
 *   perfbench --setup-only
 *   perfbench --inputs-hash --workload W --seed N
 *
 * Prints one JSON object on its last stdout line: correctness, the
 * operations attempted and failed, the end-to-end metrics, and (with
 * --trace-file) the per-layer metrics of a traced run whose spans are
 * written to PATH as chrome://tracing JSON.  perfbench/run.py builds
 * this program and turns its output into the benchmark's result line.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "workloads.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "sweep_cold|serve_interactive|serve_analysis --seed N "
                 "--seconds S [--trace-file PATH] [--inject "
                 "drop_frontier|flip_oracle|refuse] | --setup-only | "
                 "--inputs-hash --workload W --seed N\n",
                 why.c_str());
    std::exit(2);
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
object(const std::map<std::string, double> &values)
{
    std::string out = "{";
    for (const auto &[name, value] : values) {
        if (out.size() > 1)
            out += ", ";
        out += quoted(name) + ": " + number(value);
    }
    return out + "}";
}

/** Chrome trace-event JSON: wall track (pid 1), one tid per thread. */
std::string
chromeTraceJson(const std::vector<Span> &spans)
{
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    for (const Span &s : spans) {
        if (!first)
            out += ",\n";
        first = false;
        out += "{\"name\": " + quoted(s.name) + ", \"cat\": " +
               quoted(s.cat) + ", \"ph\": \"X\", \"ts\": " +
               number(s.startUs) + ", \"dur\": " + number(s.durUs) +
               ", \"pid\": 1, \"tid\": " + std::to_string(s.tid) +
               ", \"args\": {\"id\": " + std::to_string(s.id) + "}}";
    }
    return out + "]}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig config;
    std::string trace_file;
    bool setup_only = false;
    bool hash_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            config.workload = value();
        } else if (arg == "--seed") {
            config.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            config.seconds = std::strtod(value().c_str(), nullptr);
        } else if (arg == "--trace-file") {
            trace_file = value();
            config.trace = true;
        } else if (arg == "--inject") {
            const std::string what = value();
            if (what == "drop_frontier")
                config.inject = Inject::DropFrontier;
            else if (what == "flip_oracle")
                config.inject = Inject::FlipOracle;
            else if (what == "refuse")
                config.inject = Inject::Refuse;
            else
                usage("unknown --inject " + what);
        } else if (arg == "--setup-only") {
            setup_only = true;
        } else if (arg == "--inputs-hash") {
            hash_only = true;
        } else {
            usage("unknown argument " + arg);
        }
    }

    if (setup_only) {
        std::printf("{\"setup_s\": %s}\n",
                    number(measureServiceSetup()).c_str());
        return 0;
    }
    if (!isWorkload(config.workload))
        usage("unknown workload '" + config.workload + "'");
    if (hash_only) {
        std::printf("{\"inputs_hash\": \"%016llx\"}\n",
                    static_cast<unsigned long long>(
                        inputsHash(config.workload, config.seed)));
        return 0;
    }
    if (!(config.seconds > 0.0))
        usage("--seconds must be positive");

    const RunResult result = runWorkload(config);
    if (config.trace) {
        std::ofstream out(trace_file);
        out << chromeTraceJson(result.spans);
        if (!out) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         trace_file.c_str());
            return 1;
        }
    }
    std::string errors = "[";
    for (const std::string &e : result.tally.errors)
        errors += (errors.size() > 1 ? ", " : "") + quoted(e);
    errors += "]";
    char hash[32];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(result.inputsHash));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"inputs_hash\": \"%s\", \"end_to_end\": %s, "
                "\"per_layer\": %s, \"errors\": %s}\n",
                result.tally.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(result.tally.attempted),
                static_cast<unsigned long long>(result.tally.failed), hash,
                object(result.endToEnd).c_str(),
                object(result.perLayer).c_str(), errors.c_str());
    return 0;
}
