//===- support/FaultInjectionFs.cpp - Crash testing backend -----------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/support/FaultInjectionFs.h"

#include "sampletrack/support/ByteCodec.h"

#include <algorithm>
#include <iterator>
#include <type_traits>

using namespace sampletrack;
using namespace sampletrack::support;

namespace {

bool isUnder(const std::string &Path, const std::string &Dir) {
  return Path.size() > Dir.size() + 1 && Path.compare(0, Dir.size(), Dir) == 0 &&
         Path[Dir.size()] == '/';
}

} // namespace

//===----------------------------------------------------------------------===//
// Handle
//===----------------------------------------------------------------------===//

/// A writable handle into one inode. Writes append (openWrite(Append=false)
/// already truncated the inode); sync() advances the durable snapshot.
class FaultInjectionFs::Handle final : public WritableFile {
public:
  Handle(FaultInjectionFs &Fs, std::shared_ptr<Inode> I)
      : Fs(Fs), I(std::move(I)) {}

  long write(const char *Data, size_t Len) override {
    std::lock_guard<std::mutex> L(Fs.M);
    if (!I)
      return -1;
    if (Fs.faultOp()) {
      // A torn final write: some prefix still lands before the error.
      size_t Torn = std::min(Fs.Faults.TornWriteBytes, Len);
      I->Bytes.append(Data, Torn);
      return -1;
    }
    if (Fs.Faults.MaxWriteBytes)
      Len = std::min(Len, Fs.Faults.MaxWriteBytes);
    I->Bytes.append(Data, Len);
    return static_cast<long>(Len);
  }

  bool sync() override {
    std::lock_guard<std::mutex> L(Fs.M);
    if (!I || Fs.faultOp())
      return false;
    I->Durable = I->Bytes;
    return true;
  }

  bool close() override {
    I.reset();
    return true;
  }

private:
  FaultInjectionFs &Fs;
  std::shared_ptr<Inode> I;
};

//===----------------------------------------------------------------------===//
// FileSystem operations
//===----------------------------------------------------------------------===//

bool FaultInjectionFs::faultOp() {
  // Caller holds M.
  ++Ops;
  if (Fired && Faults.StayDown)
    return true;
  if (Faults.FailAtOp != 0 && Ops == Faults.FailAtOp) {
    Fired = true;
    return true;
  }
  return false;
}

bool FaultInjectionFs::isDirLocked(const std::string &Path) const {
  return Path == "." || Path == "/" || Dirs.count(Path) != 0;
}

bool FaultInjectionFs::readFile(const std::string &Path, std::string &Out,
                                std::string *Error) {
  std::lock_guard<std::mutex> L(M);
  if (faultOp())
    return fail(Error, "injected fault reading '" + Path + "'");
  auto It = Files.find(Path);
  if (It == Files.end())
    return fail(Error, "cannot open '" + Path + "': no such file");
  Out = It->second->Bytes;
  return true;
}

std::unique_ptr<WritableFile>
FaultInjectionFs::openWrite(const std::string &Path, bool Append,
                            std::string *Error) {
  std::lock_guard<std::mutex> L(M);
  if (faultOp()) {
    fail(Error, "injected fault opening '" + Path + "'");
    return nullptr;
  }
  if (!isDirLocked(parentDirOf(Path))) {
    fail(Error, "cannot write '" + Path + "': no such directory");
    return nullptr;
  }
  if (Dirs.count(Path)) {
    fail(Error, "cannot write '" + Path + "': is a directory");
    return nullptr;
  }
  auto It = Files.find(Path);
  std::shared_ptr<Inode> I;
  if (It == Files.end()) {
    I = std::make_shared<Inode>();
    Files[Path] = I;
  } else {
    I = It->second;
    if (!Append)
      I->Bytes.clear();
  }
  return std::make_unique<Handle>(*this, std::move(I));
}

bool FaultInjectionFs::exists(const std::string &Path) {
  std::lock_guard<std::mutex> L(M);
  return Files.count(Path) != 0 || isDirLocked(Path);
}

bool FaultInjectionFs::isDirectory(const std::string &Path) {
  std::lock_guard<std::mutex> L(M);
  return isDirLocked(Path);
}

bool FaultInjectionFs::mkdir(const std::string &Path) {
  std::lock_guard<std::mutex> L(M);
  if (faultOp())
    return false;
  if (!isDirLocked(parentDirOf(Path)) || isDirLocked(Path) ||
      Files.count(Path))
    return false;
  Dirs.insert(Path);
  return true;
}

bool FaultInjectionFs::rename(const std::string &From, const std::string &To) {
  std::lock_guard<std::mutex> L(M);
  if (faultOp())
    return false;
  if (Dirs.count(From)) {
    // Directory rename: the whole subtree moves. Children's directory
    // entries live inside the moved directory, so they follow it in the
    // durable view too; only the top-level name swap itself is the atomic
    // step (a crash sees the tree under the old name or the new one).
    if (Files.count(To) || Dirs.count(To))
      return false; // Target must not exist for a directory rename.
    auto Rewrite = [&](auto &Map) {
      constexpr bool IsSet = std::is_same_v<std::decay_t<decltype(Map)>,
                                            std::set<std::string>>;
      std::decay_t<decltype(Map)> Moved;
      for (auto It = Map.begin(); It != Map.end();) {
        std::string Key;
        if constexpr (IsSet)
          Key = *It;
        else
          Key = It->first;
        if (Key == From || isUnder(Key, From)) {
          std::string NewKey = To + Key.substr(From.size());
          if constexpr (IsSet)
            Moved.insert(NewKey);
          else
            Moved.emplace(NewKey, It->second);
          It = Map.erase(It);
        } else {
          ++It;
        }
      }
      Map.merge(Moved);
    };
    Rewrite(Files);
    Rewrite(DurableFiles);
    Rewrite(Dirs);
    Rewrite(DurableDirs);
    return true;
  }
  auto It = Files.find(From);
  if (It == Files.end() || Dirs.count(To))
    return false;
  if (!isDirLocked(parentDirOf(To)))
    return false;
  std::shared_ptr<Inode> I = It->second;
  Files.erase(It);
  Files[To] = std::move(I);
  // Not durable until the parent directory is synced: powerCut() before
  // that reverts to the old names.
  return true;
}

bool FaultInjectionFs::remove(const std::string &Path) {
  std::lock_guard<std::mutex> L(M);
  if (faultOp())
    return false;
  return Files.erase(Path) != 0;
}

bool FaultInjectionFs::removeDir(const std::string &Path) {
  std::lock_guard<std::mutex> L(M);
  if (faultOp())
    return false;
  if (!Dirs.count(Path))
    return false;
  for (const auto &[P, I] : Files)
    if (isUnder(P, Path))
      return false; // Not empty.
  for (const std::string &D : Dirs)
    if (isUnder(D, Path))
      return false;
  Dirs.erase(Path);
  return true;
}

bool FaultInjectionFs::truncate(const std::string &Path, uint64_t Size) {
  std::lock_guard<std::mutex> L(M);
  if (faultOp())
    return false;
  auto It = Files.find(Path);
  if (It == Files.end() || Size > It->second->Bytes.size())
    return false;
  It->second->Bytes.resize(Size);
  return true;
}

bool FaultInjectionFs::syncDirectory(const std::string &Path) {
  std::lock_guard<std::mutex> L(M);
  if (faultOp())
    return false;
  if (!isDirLocked(Path))
    return false;
  auto ParentIs = [&](const std::string &P) {
    return parentDirOf(P) == Path;
  };
  // Directory entries under Path become durable: creations and renames
  // commit, removals commit.
  for (const auto &[P, I] : Files)
    if (ParentIs(P))
      DurableFiles[P] = I;
  for (auto It = DurableFiles.begin(); It != DurableFiles.end();)
    It = ParentIs(It->first) && !Files.count(It->first)
             ? DurableFiles.erase(It)
             : std::next(It);
  for (const std::string &D : Dirs)
    if (ParentIs(D))
      DurableDirs.insert(D);
  for (auto It = DurableDirs.begin(); It != DurableDirs.end();)
    It = ParentIs(*It) && !Dirs.count(*It) ? DurableDirs.erase(It)
                                           : std::next(It);
  return true;
}

bool FaultInjectionFs::list(const std::string &Path,
                            std::vector<std::string> &Names) {
  std::lock_guard<std::mutex> L(M);
  if (!isDirLocked(Path))
    return false;
  Names.clear();
  auto Tail = [&](const std::string &P) {
    return P.substr(P.find_last_of('/') + 1);
  };
  for (const auto &[P, I] : Files)
    if (parentDirOf(P) == Path)
      Names.push_back(Tail(P));
  for (const std::string &D : Dirs)
    if (parentDirOf(D) == Path)
      Names.push_back(Tail(D));
  std::sort(Names.begin(), Names.end());
  return true;
}

bool FaultInjectionFs::fileSize(const std::string &Path, uint64_t &Size) {
  std::lock_guard<std::mutex> L(M);
  auto It = Files.find(Path);
  if (It == Files.end())
    return false;
  Size = It->second->Bytes.size();
  return true;
}

//===----------------------------------------------------------------------===//
// Fault schedule + power cut
//===----------------------------------------------------------------------===//

void FaultInjectionFs::setFaults(const FaultConfig &C) {
  std::lock_guard<std::mutex> L(M);
  Faults = C;
  Fired = false;
}

void FaultInjectionFs::clearFaults() {
  std::lock_guard<std::mutex> L(M);
  Faults = FaultConfig{};
  Fired = false;
}

uint64_t FaultInjectionFs::opCount() const {
  std::lock_guard<std::mutex> L(M);
  return Ops;
}

bool FaultInjectionFs::faultFired() const {
  std::lock_guard<std::mutex> L(M);
  return Fired;
}

void FaultInjectionFs::powerCut(size_t KeepUnsyncedBytes) {
  std::lock_guard<std::mutex> L(M);
  Files = DurableFiles;
  Dirs = DurableDirs;
  for (auto &[P, I] : Files) {
    // Appended-but-unsynced bytes: any prefix may have reached the platter.
    // Everything else (in-place rewrites, truncations) reverts wholesale.
    if (I->Bytes.size() >= I->Durable.size() &&
        I->Bytes.compare(0, I->Durable.size(), I->Durable) == 0) {
      size_t Unsynced = I->Bytes.size() - I->Durable.size();
      I->Bytes.resize(I->Durable.size() +
                      std::min(KeepUnsyncedBytes, Unsynced));
    } else {
      I->Bytes = I->Durable;
    }
  }
}

std::vector<std::string> FaultInjectionFs::allFiles() const {
  std::lock_guard<std::mutex> L(M);
  std::vector<std::string> Out;
  for (const auto &[P, I] : Files)
    Out.push_back(P);
  return Out;
}
