#include "telemetry/telemetry.hpp"

#include <cstdlib>

#include "common/env.hpp"

namespace bingo::telemetry
{

Options
optionsFromEnv()
{
    Options options;
    // 0 (like anything that is not a number) keeps the default.
    if (const std::uint64_t epoch = envU64("BINGO_EPOCH_INSTRS", 0);
        epoch > 0)
        options.epoch_instructions = epoch;
    return options;
}

std::string
outputDir()
{
    const char *dir = std::getenv("BINGO_TELEMETRY_DIR");
    return dir != nullptr ? std::string(dir) : std::string();
}

bool
requested()
{
    return !outputDir().empty();
}

} // namespace bingo::telemetry
