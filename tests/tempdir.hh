/**
 * @file
 * Scratch directory for one test: a fresh path under the system temp
 * directory, removed with everything in it when the guard goes out of
 * scope, so result stores written by tests never outlive them.
 */

#ifndef OOVA_TESTS_TEMPDIR_HH
#define OOVA_TESTS_TEMPDIR_HH

#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

#include "common/logging.hh"

namespace oova
{

class TempDir
{
  public:
    /** @param tag distinguishes the tests of one process */
    explicit TempDir(const char *tag)
        : path_((std::filesystem::temp_directory_path() /
                 csprintf("oova-test-%s-%d", tag,
                          static_cast<int>(::getpid())))
                    .string())
    {
        // A crashed earlier run of the same test (same pid reused)
        // may have left the directory behind; start clean.
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace oova

#endif // OOVA_TESTS_TEMPDIR_HH
