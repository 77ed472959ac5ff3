// Whole-file reads with a single copy: the destination string is sized once
// to the file and filled by read(2), instead of streaming through an
// ostringstream (which grows its buffer repeatedly and then copies it out).
// Also the parent-directory creation every output-file flag shares.

#ifndef VALUECHECK_SRC_SUPPORT_FILE_IO_H_
#define VALUECHECK_SRC_SUPPORT_FILE_IO_H_

#include <string>

namespace vc {

// Reads all of `path` into *out. Returns false and fills *error when the file
// cannot be opened or read, or when a regular file yields fewer bytes than
// its size (a short read: truncated underneath us). Non-regular files (pipes,
// character devices) are read to end-of-file.
bool ReadWholeFile(const std::string& path, std::string* out, std::string* error);

// Creates the parent directory of an output file path (a no-op for a bare
// filename). Returns false and fills *error when creation fails, so an
// output flag never silently drops its artifact.
bool EnsureParentDir(const std::string& path, std::string* error);

}  // namespace vc

#endif  // VALUECHECK_SRC_SUPPORT_FILE_IO_H_
