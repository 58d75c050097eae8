"""Bad: progress reporting is a result path too; only obs/ may read clocks."""
import time


def report(progress, done, total):
    progress("phase", done, total, time.time())
