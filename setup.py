from setuptools import Extension, setup

# The compiled max-flow kernel is optional: if the shipped C file does not build,
# surfcut falls back to the pure-Python implementation at import time.
setup(ext_modules=[Extension("surfcut._dinic", ["src/surfcut/_dinic.c"],
                             optional=True)])
