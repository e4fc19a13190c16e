/**
 * @file
 * The benchmark program (perfbench/NOTES.md):
 *
 *   perfbench --workload <serve-place|serve-mixed|sim-fig9> --seed <n>
 *             --seconds <s> --trace <0|1> --work-dir <dir>
 *
 * Prints one JSON line as its last stdout line: correct, attempted,
 * failed, and the end-to-end metrics (--trace 0) or the per-layer
 * metrics (--trace 1). Exits non-zero without a result on bad
 * arguments or a benchmark error. The work directory receives the
 * run's WALs and trace file and is removed afterwards.
 */

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/check.h"
#include "measure.h"
#include "workloads.h"

namespace {

perfbench::Options
parseArgs(int argc, char **argv)
{
    perfbench::Options options;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        NETPACK_REQUIRE(i + 1 < argc, flag << " needs a value");
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                options.workload = value;
                haveWorkload = true;
            } else if (flag == "--seed") {
                options.seed = std::stoull(value);
                haveSeed = true;
            } else if (flag == "--seconds") {
                options.seconds = std::stod(value);
                haveSeconds = true;
            } else if (flag == "--trace") {
                NETPACK_REQUIRE(value == "0" || value == "1",
                                "--trace takes 0 or 1");
                options.trace = value == "1";
            } else if (flag == "--work-dir") {
                options.workDir = value;
            } else {
                throw netpack::ConfigError("unknown flag " + flag);
            }
        } catch (const std::logic_error &) {
            throw netpack::ConfigError("bad value '" + value + "' for " +
                                       flag);
        }
    }
    NETPACK_REQUIRE(haveWorkload && haveSeed && haveSeconds &&
                        !options.workDir.empty(),
                    "usage: perfbench --workload <name> --seed <n> "
                    "--seconds <s> --trace <0|1> --work-dir <dir>");
    NETPACK_REQUIRE(options.seconds >= 1.0 && options.seconds <= 600.0,
                    "--seconds must be in [1, 600]");
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    namespace fs = std::filesystem;
    try {
        const perfbench::Options options = parseArgs(argc, argv);
        fs::create_directories(options.workDir);
        const perfbench::Result result = perfbench::runWorkload(options);
        fs::remove_all(options.workDir);
        perfbench::printResult(std::cout, result);
        return 0;
    } catch (const std::exception &err) {
        std::cerr << "perfbench: " << err.what() << "\n";
        return 2;
    }
}
