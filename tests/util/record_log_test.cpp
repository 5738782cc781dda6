#include "util/record_log.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace meda::util {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(DigestBuilder, DistinguishesValuesAndOrder) {
  EXPECT_NE(DigestBuilder().mix(1).value(), DigestBuilder().mix(2).value());
  EXPECT_NE(DigestBuilder().mix(1).mix(2).value(),
            DigestBuilder().mix(2).mix(1).value());
}

TEST(DigestBuilder, StringsAreLengthPrefixed) {
  // Without the length prefix "ab"+"c" and "a"+"bc" would hash the same
  // byte stream — and two assay lists could share a checkpoint digest.
  EXPECT_NE(
      DigestBuilder().mix(std::string("ab")).mix(std::string("c")).value(),
      DigestBuilder().mix(std::string("a")).mix(std::string("bc")).value());
}

TEST(RecordLog, DisabledWithEmptyPath) {
  RecordLog log;
  log.open("", 0x1u, true);
  EXPECT_FALSE(log.enabled());
  log.append("dropped");  // no-op, must not throw
  EXPECT_TRUE(log.records().empty());
}

TEST(RecordLog, RoundTripsAppendedRecords) {
  const std::string path = temp_path("log_roundtrip.txt");
  std::remove(path.c_str());
  {
    RecordLog log;
    log.open(path, 0xFEEDu, false);
    ASSERT_TRUE(log.enabled());
    log.append("solve 1 a");
    log.append("solve 2 b");
  }
  RecordLog resumed;
  resumed.open(path, 0xFEEDu, true);
  ASSERT_EQ(resumed.records().size(), 2u);
  EXPECT_EQ(resumed.records()[0], "solve 1 a");
  EXPECT_EQ(resumed.records()[1], "solve 2 b");
  // Appends after resume land behind the replayed prefix on disk, while
  // records() keeps holding only the replayed prefix.
  resumed.append("solve 3 c");
  ASSERT_EQ(resumed.records().size(), 2u);
  EXPECT_EQ(resumed.records()[1], "solve 2 b");
  EXPECT_EQ(read_file(path),
            read_file(path).substr(0, read_file(path).find('\n') + 1) +
                "solve 1 a\nsolve 2 b\nsolve 3 c\n");
}

TEST(RecordLog, DigestMismatchStartsFresh) {
  const std::string path = temp_path("log_digest.txt");
  std::remove(path.c_str());
  {
    RecordLog log;
    log.open(path, 0xAAAAu, false);
    log.append("stale");
  }
  RecordLog resumed;
  resumed.open(path, 0xBBBBu, true);
  EXPECT_TRUE(resumed.enabled());
  EXPECT_TRUE(resumed.records().empty());
  // The stale file was replaced by a fresh header for the new digest.
  RecordLog again;
  again.open(path, 0xBBBBu, true);
  EXPECT_TRUE(again.records().empty());
}

TEST(RecordLog, GarbageOrWrongVersionStartsFresh) {
  const std::string path = temp_path("log_garbage.txt");
  for (const char* contents :
       {"not a log at all\n", "meda-log v2 0000000000000001\n",
        "meda-log v1 zzzz\nrecord\n", ""}) {
    {
      std::ofstream out(path, std::ios::trunc);
      out << contents;
    }
    RecordLog log;
    log.open(path, 0x1u, true);
    EXPECT_TRUE(log.enabled()) << contents;
    EXPECT_TRUE(log.records().empty()) << contents;
  }
}

TEST(RecordLog, TornTailLineIsDropped) {
  const std::string path = temp_path("log_torn.txt");
  std::remove(path.c_str());
  {
    RecordLog log;
    log.open(path, 0xC0DEu, false);
    log.append("complete 1");
    log.append("complete 2");
  }
  {
    // Simulate a SIGKILL mid-append: a trailing record with no '\n'.
    std::ofstream out(path, std::ios::app);
    out << "torn rec";
  }
  RecordLog resumed;
  resumed.open(path, 0xC0DEu, true);
  ASSERT_EQ(resumed.records().size(), 2u);
  EXPECT_EQ(resumed.records()[1], "complete 2");
  // The torn tail is physically rewritten away, so a new append does not
  // splice onto it.
  resumed.append("complete 3");
  const std::string contents = read_file(path);
  EXPECT_EQ(contents.find("torn"), std::string::npos);
  EXPECT_NE(contents.find("complete 3\n"), std::string::npos);
}

TEST(RecordLog, RejectsMultiLinePayloads) {
  const std::string path = temp_path("log_multiline.txt");
  std::remove(path.c_str());
  RecordLog log;
  log.open(path, 0x2u, false);
  EXPECT_THROW(log.append("two\nlines"), PreconditionError);
}

TEST(RecordLog, ReopenWithoutResumeTruncates) {
  const std::string path = temp_path("log_truncate.txt");
  std::remove(path.c_str());
  {
    RecordLog log;
    log.open(path, 0x3u, false);
    log.append("old");
  }
  RecordLog fresh;
  fresh.open(path, 0x3u, false);
  EXPECT_TRUE(fresh.records().empty());
  RecordLog check;
  check.open(path, 0x3u, true);
  EXPECT_TRUE(check.records().empty());
}

TEST(RecordLog, ConcurrentAppendsFromPoolWorkersRestoreEachSlotOnce) {
  // Campaign workers record slots concurrently: every record must land
  // whole, on its own line, exactly once.
  const std::string path = temp_path("log_concurrent.txt");
  std::remove(path.c_str());
  constexpr std::size_t kSlots = 256;
  SlotCheckpoint cp;
  cp.open(path, 0xC0C0u, false, kSlots);
  parallel_for(4, kSlots, [&](std::size_t slot) {
    cp.record(slot, "payload " + std::to_string(slot * 7));
  });
  SlotCheckpoint resumed;
  resumed.open(path, 0xC0C0u, true, kSlots);
  EXPECT_EQ(resumed.restored_count(), kSlots);
  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    ASSERT_NE(resumed.restored(slot), nullptr) << slot;
    EXPECT_EQ(*resumed.restored(slot), "payload " + std::to_string(slot * 7));
  }
  const std::string contents = read_file(path);
  EXPECT_EQ(std::count(contents.begin(), contents.end(), '\n'),
            static_cast<std::ptrdiff_t>(kSlots + 1));  // header + one each
}

TEST(SlotCheckpoint, InactiveByDefault) {
  SlotCheckpoint cp;
  EXPECT_FALSE(cp.active());
  EXPECT_EQ(cp.restored(0), nullptr);
  cp.record(0, "ignored");  // no-op, must not throw
}

TEST(SlotCheckpoint, RoundTripsRecordedSlots) {
  const std::string path = temp_path("cp_roundtrip.txt");
  std::remove(path.c_str());
  {
    SlotCheckpoint cp;
    cp.open(path, 0xABCDu, false, 4);
    EXPECT_TRUE(cp.active());
    cp.record(0, "alpha");
    cp.record(2, "gamma 3 4");
  }
  SlotCheckpoint resumed;
  resumed.open(path, 0xABCDu, true, 4);
  EXPECT_EQ(resumed.restored_count(), 2u);
  ASSERT_NE(resumed.restored(0), nullptr);
  EXPECT_EQ(*resumed.restored(0), "alpha");
  EXPECT_EQ(resumed.restored(1), nullptr);
  ASSERT_NE(resumed.restored(2), nullptr);
  EXPECT_EQ(*resumed.restored(2), "gamma 3 4");
  EXPECT_EQ(resumed.restored(3), nullptr);
}

TEST(SlotCheckpoint, EveryRecordIsDurableWithoutAFlush) {
  // A kill loses only the slot in flight: each record reaches the file as
  // it is made, so a resume while the writer is still open (as after a
  // SIGKILL, with no destructor run) restores every recorded slot. A slot
  // recorded twice restores its last payload.
  const std::string path = temp_path("cp_durable.txt");
  std::remove(path.c_str());
  SlotCheckpoint cp;
  cp.open(path, 0xD00Du, false, 8);
  cp.record(3, "three, first try");
  cp.record(5, "five");
  cp.record(1, "one");
  cp.record(3, "three");
  SlotCheckpoint resumed;
  resumed.open(path, 0xD00Du, true, 8);
  EXPECT_EQ(resumed.restored_count(), 3u);
  for (const std::size_t slot : {1u, 3u, 5u})
    ASSERT_NE(resumed.restored(slot), nullptr) << slot;
  EXPECT_EQ(*resumed.restored(3), "three");
}

TEST(SlotCheckpoint, DigestMismatchStartsFresh) {
  const std::string path = temp_path("cp_digest.txt");
  std::remove(path.c_str());
  {
    SlotCheckpoint cp;
    cp.open(path, 1, false, 2);
    cp.record(0, "old config");
  }
  SlotCheckpoint resumed;
  resumed.open(path, 2, true, 2);  // different digest: incompatible
  EXPECT_EQ(resumed.restored_count(), 0u);
  EXPECT_EQ(resumed.restored(0), nullptr);
}

TEST(SlotCheckpoint, SlotCountMismatchStartsFresh) {
  const std::string path = temp_path("cp_count.txt");
  std::remove(path.c_str());
  {
    SlotCheckpoint cp;
    cp.open(path, 7, false, 2);
    cp.record(0, "two-slot grid");
  }
  SlotCheckpoint resumed;
  resumed.open(path, 7, true, 3);
  EXPECT_EQ(resumed.restored_count(), 0u);
}

TEST(SlotCheckpoint, ResumeFalseIgnoresTheExistingFile) {
  const std::string path = temp_path("cp_noresume.txt");
  std::remove(path.c_str());
  {
    SlotCheckpoint cp;
    cp.open(path, 7, false, 2);
    cp.record(0, "stale");
  }
  SlotCheckpoint fresh;
  fresh.open(path, 7, false, 2);
  EXPECT_EQ(fresh.restored_count(), 0u);
}

TEST(SlotCheckpoint, TruncatedFileRestoresOnlyCompleteLines) {
  // Simulates a kill mid-append: a torn trailing line must not poison the
  // resume — its slot is simply recomputed.
  const std::string path = temp_path("cp_torn.txt");
  std::remove(path.c_str());
  {
    SlotCheckpoint cp;
    cp.open(path, 9, false, 3);
    cp.record(0, "complete");
    cp.record(1, "will be torn");
  }
  std::string content = read_file(path);
  ASSERT_FALSE(content.empty());
  content.resize(content.size() - 8);  // tear the tail of the last line
  {
    std::ofstream out(path, std::ios::trunc);
    out << content;
  }
  SlotCheckpoint resumed;
  resumed.open(path, 9, true, 3);
  EXPECT_EQ(resumed.restored_count(), 1u);
  ASSERT_NE(resumed.restored(0), nullptr);
  EXPECT_EQ(*resumed.restored(0), "complete");
  EXPECT_EQ(resumed.restored(1), nullptr);
}

TEST(SlotCheckpoint, RejectsMultilinePayloadsAndBadSlots) {
  SlotCheckpoint cp;
  cp.open(temp_path("cp_reject.txt"), 5, false, 2);
  EXPECT_THROW(cp.record(0, "two\nlines"), PreconditionError);
  EXPECT_THROW(cp.record(2, "out of range"), PreconditionError);
}

}  // namespace
}  // namespace meda::util
