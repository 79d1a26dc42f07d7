package render

import (
	"fmt"
	"log"
	"os"
)

func emit(w any) {
	fmt.Println("done")            // want `fmt.Println in an internal package`
	fmt.Printf("%d jobs\n", 3)     // want `fmt.Printf in an internal package`
	fmt.Fprintf(os.Stderr, "oops") // want `fmt.Fprintf to os.Stderr in an internal package`
	fmt.Fprint(os.Stdout, "raw")   // want `fmt.Fprint to os.Stdout in an internal package`
	fmt.Fprintf(w, "fine")         // fine: the caller chose the writer
	log.Printf("legacy %d", 7)     // want `log.Printf in an internal package`
}
