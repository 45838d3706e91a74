import sys

from benchmarks.e2e.parent import main

sys.exit(main())
