"""stabsynth: synthesize, optimize and verify circuits for stabilizer codes.

The package imports nothing here, so ``import stabsynth`` loads no
submodule and ``import stabsynth.cli`` loads only what the CLI needs.
Being a regular package, not a namespace one, also makes
``importlib.resources.files("stabsynth")`` a plain directory path, so a
shipped fixture is read without listing the package directory.
"""
