from .cli import main_script

if __name__ == "__main__":
    main_script()
