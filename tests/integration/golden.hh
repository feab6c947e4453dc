/**
 * @file
 * Byte-equality check against a committed golden file under
 * tests/integration/golden/, shared by every test binary that pins
 * an output. The including target defines MICROSCALE_GOLDEN_DIR.
 *
 * Regenerating (only when an intentional behavior change lands): run
 * the test with MICROSCALE_REGEN_GOLDENS=1 set, then commit the
 * rewritten files.
 */

#ifndef MICROSCALE_TESTS_INTEGRATION_GOLDEN_HH
#define MICROSCALE_TESTS_INTEGRATION_GOLDEN_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef MICROSCALE_GOLDEN_DIR
#error "MICROSCALE_GOLDEN_DIR must be defined by the build"
#endif

namespace microscale::testing
{

/** Compare `text` against (or regenerate) golden/<name>. */
inline void
checkGolden(const std::string &name, const std::string &text)
{
    const std::string path =
        std::string(MICROSCALE_GOLDEN_DIR) + "/" + name;
    if (std::getenv("MICROSCALE_REGEN_GOLDENS") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << text;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden " << path
                           << " (run with MICROSCALE_REGEN_GOLDENS=1)";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(text, want.str()) << name << " diverged from golden";
}

} // namespace microscale::testing

#endif // MICROSCALE_TESTS_INTEGRATION_GOLDEN_HH
